#include "parallel/comm.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <thread>
#include <tuple>

#include "common/error.h"

namespace matgpt {

namespace detail {

GroupState::GroupState(int size_in) : size(size_in) {
  MGPT_CHECK(size > 0, "communicator group must have at least one rank");
}

}  // namespace detail

void run_ranks(int world_size,
               const std::function<void(Communicator&)>& fn) {
  MGPT_CHECK(world_size > 0, "run_ranks requires world_size > 0");
  auto state = std::make_shared<detail::GroupState>(world_size);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(world_size));
  threads.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    threads.emplace_back([&, r] {
      try {
        Communicator comm(r, state);
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

Communicator::Communicator(int rank,
                           std::shared_ptr<detail::GroupState> state)
    : rank_(rank), state_(std::move(state)) {
  MGPT_CHECK(rank_ >= 0 && rank_ < state_->size,
             "rank " << rank_ << " out of range for group of size "
                     << state_->size);
}

void Communicator::barrier() {
  auto& gs = *state_;
  std::unique_lock lock(gs.barrier_mutex);
  const bool sense = gs.barrier_sense;
  if (++gs.barrier_arrived == gs.size) {
    gs.barrier_arrived = 0;
    gs.barrier_sense = !sense;
    gs.barrier_cv.notify_all();
  } else {
    gs.barrier_cv.wait(lock, [&] { return gs.barrier_sense != sense; });
  }
}

void Communicator::allreduce(std::span<float> data, ReduceOp op) {
  auto& gs = *state_;
  if (gs.size == 1) return;
  {
    std::lock_guard lock(gs.scratch_mutex);
    if (gs.scratch_contributors == 0) {
      gs.reduce_accum.assign(data.begin(), data.end());
    } else {
      MGPT_CHECK(gs.reduce_accum.size() == data.size(),
                 "allreduce length mismatch across ranks");
      for (std::size_t i = 0; i < data.size(); ++i) {
        switch (op) {
          case ReduceOp::kSum:
            gs.reduce_accum[i] += static_cast<double>(data[i]);
            break;
          case ReduceOp::kMax:
            gs.reduce_accum[i] =
                std::max(gs.reduce_accum[i], static_cast<double>(data[i]));
            break;
          case ReduceOp::kMin:
            gs.reduce_accum[i] =
                std::min(gs.reduce_accum[i], static_cast<double>(data[i]));
            break;
        }
      }
    }
    if (++gs.scratch_contributors == gs.size) gs.scratch_contributors = 0;
  }
  barrier();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(gs.reduce_accum[i]);
  }
  {
    std::lock_guard lock(gs.stats_mutex);
    gs.bytes_reduced += data.size() * sizeof(float);
  }
  barrier();
}

void Communicator::allgather(std::span<const float> send,
                             std::span<float> recv) {
  auto& gs = *state_;
  MGPT_CHECK(recv.size() == send.size() * static_cast<std::size_t>(gs.size),
             "allgather recv must be size() * send length");
  {
    std::lock_guard lock(gs.scratch_mutex);
    if (gs.scratch_contributors == 0) {
      gs.gather_buf.assign(recv.size(), 0.0f);
    }
    std::copy(send.begin(), send.end(),
              gs.gather_buf.begin() +
                  static_cast<std::ptrdiff_t>(send.size()) * rank_);
    if (++gs.scratch_contributors == gs.size) gs.scratch_contributors = 0;
  }
  barrier();
  std::copy(gs.gather_buf.begin(), gs.gather_buf.end(), recv.begin());
  {
    std::lock_guard lock(gs.stats_mutex);
    gs.bytes_gathered += send.size() * sizeof(float);
  }
  barrier();
}

void Communicator::reduce_scatter(std::span<const float> send,
                                  std::span<float> recv) {
  auto& gs = *state_;
  MGPT_CHECK(send.size() == recv.size() * static_cast<std::size_t>(gs.size),
             "reduce_scatter send must be size() * recv length");
  {
    std::lock_guard lock(gs.scratch_mutex);
    if (gs.scratch_contributors == 0) {
      gs.reduce_accum.assign(send.begin(), send.end());
    } else {
      for (std::size_t i = 0; i < send.size(); ++i) {
        gs.reduce_accum[i] += static_cast<double>(send[i]);
      }
    }
    if (++gs.scratch_contributors == gs.size) gs.scratch_contributors = 0;
  }
  barrier();
  const std::size_t shard = recv.size();
  for (std::size_t i = 0; i < shard; ++i) {
    recv[i] = static_cast<float>(
        gs.reduce_accum[shard * static_cast<std::size_t>(rank_) + i]);
  }
  {
    std::lock_guard lock(gs.stats_mutex);
    gs.bytes_reduced += shard * sizeof(float);
  }
  barrier();
}

void Communicator::broadcast(std::span<float> data, int root) {
  auto& gs = *state_;
  MGPT_CHECK(root >= 0 && root < gs.size, "broadcast root out of range");
  if (gs.size == 1) return;
  if (rank_ == root) {
    std::lock_guard lock(gs.scratch_mutex);
    gs.gather_buf.assign(data.begin(), data.end());
  }
  barrier();
  if (rank_ != root) {
    MGPT_CHECK(gs.gather_buf.size() == data.size(),
               "broadcast length mismatch across ranks");
    std::copy(gs.gather_buf.begin(), gs.gather_buf.end(), data.begin());
  }
  barrier();
}

void Communicator::send(std::span<const float> data, int dst, int tag) {
  auto& gs = *state_;
  MGPT_CHECK(dst >= 0 && dst < gs.size, "send destination out of range");
  MGPT_CHECK(dst != rank_, "send to self would deadlock");
  const auto key = std::make_tuple(rank_, dst, tag);
  std::unique_lock lock(gs.p2p_mutex);
  gs.p2p_cv.wait(lock, [&] { return !gs.mailboxes[key].full; });
  auto& box = gs.mailboxes[key];
  box.payload.assign(data.begin(), data.end());
  box.full = true;
  {
    std::lock_guard stats(gs.stats_mutex);
    gs.bytes_p2p += data.size() * sizeof(float);
  }
  gs.p2p_cv.notify_all();
}

void Communicator::recv(std::span<float> data, int src, int tag) {
  auto& gs = *state_;
  MGPT_CHECK(src >= 0 && src < gs.size, "recv source out of range");
  const auto key = std::make_tuple(src, rank_, tag);
  std::unique_lock lock(gs.p2p_mutex);
  gs.p2p_cv.wait(lock, [&] { return gs.mailboxes[key].full; });
  auto& box = gs.mailboxes[key];
  MGPT_CHECK(box.payload.size() == data.size(),
             "recv length mismatch: got " << box.payload.size()
                                          << ", expected " << data.size());
  std::copy(box.payload.begin(), box.payload.end(), data.begin());
  box.full = false;
  gs.p2p_cv.notify_all();
}

Communicator Communicator::split(int color, int key) {
  auto& gs = *state_;
  MGPT_CHECK(color >= 0, "split color must be non-negative");
  {
    std::lock_guard lock(gs.split_mutex);
    if (gs.split_entries.empty()) {
      gs.split_entries.assign(static_cast<std::size_t>(gs.size),
                              {std::numeric_limits<int>::min(), 0});
    }
    gs.split_entries[static_cast<std::size_t>(rank_)] = {color, key};
    if (++gs.split_contributors == gs.size) {
      // Last contributor materializes every child group.
      std::map<int, std::vector<std::pair<int, int>>> by_color;  // (key, rank)
      for (int r = 0; r < gs.size; ++r) {
        const auto& [c, k] = gs.split_entries[static_cast<std::size_t>(r)];
        by_color[c].emplace_back(k, r);
      }
      gs.split_result.clear();
      for (auto& [c, members] : by_color) {
        std::sort(members.begin(), members.end());
        auto child =
            std::make_shared<detail::GroupState>(static_cast<int>(members.size()));
        for (std::size_t i = 0; i < members.size(); ++i) {
          gs.split_result[members[i].second] = {child, static_cast<int>(i)};
        }
      }
      gs.split_contributors = 0;
    }
  }
  barrier();
  std::shared_ptr<detail::GroupState> child;
  int child_rank = 0;
  {
    std::lock_guard lock(gs.split_mutex);
    const auto it = gs.split_result.find(rank_);
    MGPT_ASSERT(it != gs.split_result.end());
    child = it->second.first;
    child_rank = it->second.second;
    if (++gs.split_readers == gs.size) {
      gs.split_readers = 0;
      gs.split_entries.clear();
      gs.split_result.clear();
    }
  }
  barrier();
  return Communicator(child_rank, std::move(child));
}

std::uint64_t Communicator::bytes_reduced() const {
  std::lock_guard lock(state_->stats_mutex);
  return state_->bytes_reduced;
}

std::uint64_t Communicator::bytes_gathered() const {
  std::lock_guard lock(state_->stats_mutex);
  return state_->bytes_gathered;
}

std::uint64_t Communicator::bytes_p2p() const {
  std::lock_guard lock(state_->stats_mutex);
  return state_->bytes_p2p;
}

}  // namespace matgpt
