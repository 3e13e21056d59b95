#pragma once
// In-process message-passing runtime with MPI-style semantics.
//
// The trainer uses this layer for real data-parallel training across threads
// (each rank owns a model replica and allreduces gradients), mirroring how
// the paper's DeepSpeed-Megatron stack layers collectives under the training
// loop. The interface intentionally follows MPI naming (rank/size, split,
// allreduce/allgather/reduce_scatter/broadcast/barrier, send/recv) so the
// same training code could be retargeted to a real MPI communicator.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace matgpt {

class Communicator;

/// Launch `world_size` ranks as threads, each running fn(comm). Blocks until
/// all ranks return; the first uncaught rank exception is rethrown here.
void run_ranks(int world_size,
               const std::function<void(Communicator&)>& fn);

namespace detail {

/// Shared collective state for one communicator group.
struct GroupState {
  explicit GroupState(int size);

  int size;

  // Sense-reversing barrier.
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int barrier_arrived = 0;
  bool barrier_sense = false;

  // Scratch for reductions/gathers; resized on demand by the first arriver.
  std::mutex scratch_mutex;
  std::vector<double> reduce_accum;
  std::vector<float> gather_buf;
  int scratch_contributors = 0;

  // Split bookkeeping. This used to live in a process-global registry keyed
  // by GroupState address, which aliased when a freed group's address was
  // reused by a new allocation — concurrent groups could then share split
  // scratch. Owning it here ties the scratch to the group's lifetime.
  std::mutex split_mutex;
  std::vector<std::pair<int, int>> split_entries;  // parent rank -> (color,key)
  std::map<int, std::pair<std::shared_ptr<GroupState>, int>> split_result;
  int split_contributors = 0;
  int split_readers = 0;

  // Point-to-point mailboxes keyed by (src, dst, tag).
  struct Mailbox {
    std::vector<float> payload;
    bool full = false;
  };
  std::mutex p2p_mutex;
  std::condition_variable p2p_cv;
  std::map<std::tuple<int, int, int>, Mailbox> mailboxes;

  // Collective byte counters (observability; used by tests and traces).
  std::mutex stats_mutex;
  std::uint64_t bytes_reduced = 0;
  std::uint64_t bytes_gathered = 0;
  std::uint64_t bytes_p2p = 0;
};

}  // namespace detail

/// Reduction operators supported by allreduce.
enum class ReduceOp { kSum, kMax, kMin };

/// Per-rank handle onto a communicator group. Not thread-safe across ranks —
/// each rank thread uses its own Communicator instance.
class Communicator {
 public:
  Communicator(int rank, std::shared_ptr<detail::GroupState> state);

  int rank() const { return rank_; }
  int size() const { return state_->size; }

  /// All ranks must call; returns when every rank has arrived.
  void barrier();

  /// Element-wise reduce across ranks; result replicated to all ranks.
  void allreduce(std::span<float> data, ReduceOp op = ReduceOp::kSum);

  /// Concatenate each rank's `send` (all equal length) into `recv`
  /// (length size() * send.size()), rank-major.
  void allgather(std::span<const float> send, std::span<float> recv);

  /// Sum-reduce the full vector then scatter contiguous shards: rank r
  /// receives shard r of the reduction into `recv`
  /// (send.size() == size() * recv.size()).
  void reduce_scatter(std::span<const float> send, std::span<float> recv);

  /// Replicate root's buffer to every rank.
  void broadcast(std::span<float> data, int root);

  /// Blocking tagged point-to-point.
  void send(std::span<const float> data, int dst, int tag = 0);
  void recv(std::span<float> data, int src, int tag = 0);

  /// Create a sub-communicator: ranks sharing `color` form a group, ordered
  /// by `key` (ties broken by parent rank). Collective over the parent.
  Communicator split(int color, int key);

  /// Observability: total traffic this group has moved (all ranks).
  std::uint64_t bytes_reduced() const;
  std::uint64_t bytes_gathered() const;
  std::uint64_t bytes_p2p() const;

 private:
  int rank_;
  std::shared_ptr<detail::GroupState> state_;
};

}  // namespace matgpt
