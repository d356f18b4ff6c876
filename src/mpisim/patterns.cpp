#include "mpisim/patterns.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "core/contracts.hpp"
#include "mpisim/hierarchical.hpp"

namespace tfx::mpisim {

namespace {

/// Stands for one payload element of N bytes, so spans of it have the
/// byte sizes (and charge_combine the costs) of the real payload. A
/// recording never reads or writes payloads: copying one is a no-op,
/// which turns the templates' own copies (gatherv's root slot,
/// allgather's own block, the ring's allgather phase) into nothing.
template <std::size_t N>
struct opaque_elem {
  std::byte bytes[N];

  opaque_elem& operator=(const opaque_elem&) { return *this; }
};

/// Address space for the payloads of one program, shared by every
/// rank's recording. Nothing touches it, so it is mapped inaccessible
/// and uncommitted: a 1536-rank gatherv root's 6 MiB (or the 6 GiB of
/// a 4 MiB Fig. 3 gatherv) costs no memory, and a stray payload access
/// would fault instead of passing unnoticed.
class payload_space {
 public:
  explicit payload_space(std::size_t bytes)
      : bytes_(std::max<std::size_t>(bytes, 1)),
        base_(::mmap(nullptr, bytes_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)) {
    if (base_ == MAP_FAILED) throw std::bad_alloc();
  }
  payload_space(const payload_space&) = delete;
  payload_space& operator=(const payload_space&) = delete;
  ~payload_space() { ::munmap(base_, bytes_); }

  /// Elements [offset, offset + n) of the space viewed as T.
  template <typename T>
  std::span<T> elems(std::size_t offset, std::size_t n) const {
    TFX_EXPECTS((offset + n) * sizeof(T) <= bytes_);
    return {static_cast<T*>(base_) + offset, n};
  }

 private:
  std::size_t bytes_;
  void* base_;
};

/// A Comm that runs one rank of a collective template and appends each
/// send, recv and advance to that rank's op list instead of moving
/// data; no collective's control flow depends on payload values. Its
/// rank map is affine (global = base + stride * local), which also
/// gives the node and leader views of the hierarchical allreduce under
/// the block placement.
class program_recorder {
 public:
  static constexpr bool traced = false;  // no traffic, no obs spans

  program_recorder(std::vector<sim_op>& ops, const tofud_params& net,
                   int rank, int size, int base = 0, int stride = 1)
      : ops_(&ops), net_(&net), rank_(rank), size_(size), base_(base),
        stride_(stride) {}

  /// The same recording seen through another affine rank map.
  [[nodiscard]] program_recorder view(int rank, int size, int base,
                                      int stride) const {
    return {*ops_, *net_, rank, size, base, stride};
  }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] const tofud_params& net() const { return *net_; }

  void advance(double seconds) {
    ops_->push_back(sim_op::compute_for(seconds));
  }
  void send_bytes(std::span<const std::byte> data, int dst, int /*tag*/) {
    ops_->push_back(sim_op::send_to(global(dst), data.size()));
  }
  void recv_bytes(std::span<std::byte> out, int src, int /*tag*/) {
    ops_->push_back(sim_op::recv_from(global(src), out.size()));
  }
  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    send_bytes(std::as_bytes(data), dst, tag);
  }
  template <typename T>
  void recv(std::span<T> out, int src, int tag) {
    recv_bytes(std::as_writable_bytes(out), src, tag);
  }

 private:
  [[nodiscard]] int global(int local) const { return base_ + stride_ * local; }

  std::vector<sim_op>* ops_;
  const tofud_params* net_;
  int rank_, size_, base_, stride_;
};

/// Record all p ranks of a program; `body(recorder)` runs the template
/// for the recorder's rank. Ops land in one reused scratch vector and
/// are copied out at exact size: one allocation per rank, which at
/// 1024+ ranks keeps growth copies out of DES host time
/// (docs/TOPOLOGY.md). The scratch outlives the call: freed after every
/// program, it made each 4096-rank Rabenseifner build fault its pages
/// in again (about 1,400 minor faults) and take 1.6-2x the host time.
/// Flattening inlines the templates into the loop.
template <typename Body>
[[gnu::flatten]] sim_program record(const tofud_params& net, int p,
                                    Body&& body) {
  sim_program prog(p);
  thread_local std::vector<sim_op> scratch;
  for (int r = 0; r < p; ++r) {
    scratch.clear();
    program_recorder rec(scratch, net, r, p);
    body(rec);
    prog.rank(r).assign(scratch.begin(), scratch.end());
  }
  return prog;
}

/// fn(opaque_elem<elem_bytes>{}) for the element sizes in use.
template <typename Fn>
sim_program with_elem(std::size_t elem_bytes, Fn&& fn) {
  switch (elem_bytes) {
    case 1: return fn(opaque_elem<1>{});
    case 2: return fn(opaque_elem<2>{});
    case 4: return fn(opaque_elem<4>{});
    case 8: return fn(opaque_elem<8>{});
    default: break;
  }
  TFX_EXPECTS(false && "elem_bytes must be 1, 2, 4 or 8");
  return sim_program(0);
}

}  // namespace

sim_program make_barrier_program(int p) {
  return record(tofud_params{}, p,
                [](program_recorder& rec) { barrier(rec); });
}

sim_program make_bcast_program(int p, std::size_t count,
                               std::size_t elem_bytes, int root) {
  return with_elem(elem_bytes, [&](auto elem) {
    using T = decltype(elem);
    const payload_space space(count * sizeof(T));
    const auto data = space.elems<T>(0, count);
    return record(tofud_params{}, p,
                  [&](program_recorder& rec) { bcast(rec, data, root); });
  });
}

sim_program make_reduce_program(const tofud_params& net, int p,
                                std::size_t count, std::size_t elem_bytes,
                                int root) {
  return with_elem(elem_bytes, [&](auto elem) {
    using T = decltype(elem);
    const payload_space space(2 * count * sizeof(T));
    const auto acc = space.elems<T>(0, count);
    const auto incoming = space.elems<T>(count, count);
    return record(net, p, [&](program_recorder& rec) {
      detail::reduce_inplace(rec, acc, detail::no_combine{}, root, incoming);
    });
  });
}

sim_program make_allreduce_program(const tofud_params& net, int p,
                                   std::size_t count, std::size_t elem_bytes,
                                   coll_algorithm algo) {
  TFX_EXPECTS(algo == coll_algorithm::automatic ||
              algo == coll_algorithm::recursive_doubling ||
              algo == coll_algorithm::ring ||
              algo == coll_algorithm::rabenseifner);
  return with_elem(elem_bytes, [&](auto elem) {
    using T = decltype(elem);
    const payload_space space(2 * count * sizeof(T));
    const auto acc = space.elems<T>(0, count);
    const auto scratch = space.elems<T>(count, count);
    return record(net, p, [&](program_recorder& rec) {
      detail::allreduce_inplace(rec, acc, detail::no_combine{}, algo,
                                scratch);
    });
  });
}

sim_program make_hierarchical_allreduce_program(
    const tofud_params& net, const torus_placement& place,
    std::size_t count, std::size_t elem_bytes, coll_algorithm algo) {
  const int m = place.ranks_per_node();
  const int nodes = place.node_count();
  return with_elem(elem_bytes, [&](auto elem) {
    using T = decltype(elem);
    const payload_space space(2 * count * sizeof(T));
    const auto acc = space.elems<T>(0, count);
    const auto scratch = space.elems<T>(count, count);
    return record(net, place.rank_count(), [&](program_recorder& rec) {
      // Block placement: node k holds global ranks k*m .. k*m + m-1
      // and its leader is k*m - the ranks hierarchy{} elects.
      const int node = rec.rank() / m;
      program_recorder node_comm = rec.view(rec.rank() % m, m, node * m, 1);
      program_recorder leader_comm = rec.view(node, nodes, 0, m);
      detail::hierarchical_allreduce_inplace(node_comm, leader_comm, acc,
                                             detail::no_combine{}, algo,
                                             scratch);
    });
  });
}

sim_program make_gatherv_program(int p, std::size_t count,
                                 std::size_t elem_bytes, int root) {
  return with_elem(elem_bytes, [&](auto elem) {
    using T = decltype(elem);
    const auto n = static_cast<std::size_t>(p);
    const payload_space space((n + 1) * count * sizeof(T));
    const auto in = space.elems<T>(0, count);
    const auto out = space.elems<T>(count, n * count);
    const std::vector<std::size_t> counts(n, count);
    return record(tofud_params{}, p, [&](program_recorder& rec) {
      gatherv(rec, std::span<const T>(in), std::span<const std::size_t>(counts),
              out, root);
    });
  });
}

sim_program make_allgather_program(int p, std::size_t count,
                                   std::size_t elem_bytes) {
  return with_elem(elem_bytes, [&](auto elem) {
    using T = decltype(elem);
    const auto n = static_cast<std::size_t>(p);
    const payload_space space((n + 1) * count * sizeof(T));
    const auto in = space.elems<T>(0, count);
    const auto out = space.elems<T>(count, n * count);
    return record(tofud_params{}, p, [&](program_recorder& rec) {
      allgather(rec, std::span<const T>(in), out);
    });
  });
}

}  // namespace tfx::mpisim
