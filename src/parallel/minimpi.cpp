#include "parallel/minimpi.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "common/error.hpp"

namespace eth::mpi {

namespace detail {

struct Message {
  int tag;
  std::vector<std::uint8_t> bytes;
};

// One per destination rank. Two channels: user traffic and the internal
// channel collectives run on, so a user recv(kAnyTag) can never steal a
// collective's payload.
struct Inbox {
  std::mutex mutex;
  std::condition_variable arrived;
  std::vector<std::deque<Message>> user_by_src;
  std::vector<std::deque<Message>> internal_by_src;
};

// Reusable generation barrier.
class Barrier {
public:
  explicit Barrier(int parties) : parties_(parties) {}

  /// Returns false when the group was aborted while waiting.
  bool arrive_and_wait(const std::atomic<bool>& aborted) {
    std::unique_lock<std::mutex> lock(mutex_);
    const long gen = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      released_.notify_all();
      return !aborted.load();
    }
    released_.wait(lock, [&] { return generation_ != gen || aborted.load(); });
    return !aborted.load();
  }

  void wake_all() {
    // Lock-then-notify: a waiter between its predicate check and the
    // wait still holds the mutex, so acquiring it here guarantees the
    // notification cannot slip into that window and be lost.
    { std::lock_guard<std::mutex> lock(mutex_); }
    released_.notify_all();
  }

private:
  std::mutex mutex_;
  std::condition_variable released_;
  int parties_;
  int waiting_ = 0;
  long generation_ = 0;
};

class GroupState {
public:
  explicit GroupState(int size) : size_(size), barrier_(size), split_seq_(size, 0) {
    require(size > 0, "minimpi: communicator size must be positive");
    inboxes_.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) {
      auto inbox = std::make_unique<Inbox>();
      inbox->user_by_src.resize(static_cast<std::size_t>(size));
      inbox->internal_by_src.resize(static_cast<std::size_t>(size));
      inboxes_.push_back(std::move(inbox));
    }
  }

  int size() const { return size_; }

  void check_rank(int r, const char* what) const {
    if (r < 0 || r >= size_) fail(std::string("minimpi: ") + what + " rank out of range");
  }

  void abort() {
    aborted_.store(true);
    // Same lock-then-notify handshake as Barrier::wake_all: a receiver
    // that has tested the flag but not yet entered wait holds its inbox
    // mutex, so briefly taking it orders this store before the wait.
    for (auto& inbox : inboxes_) {
      { std::lock_guard<std::mutex> lock(inbox->mutex); }
      inbox->arrived.notify_all();
    }
    barrier_.wake_all();
  }

  bool aborted() const { return aborted_.load(); }

  void deliver(bool internal, int src, int dst, int tag,
               std::span<const std::uint8_t> bytes) {
    Inbox& inbox = *inboxes_[static_cast<std::size_t>(dst)];
    {
      std::lock_guard<std::mutex> lock(inbox.mutex);
      auto& queues = internal ? inbox.internal_by_src : inbox.user_by_src;
      queues[static_cast<std::size_t>(src)].push_back(
          Message{tag, std::vector<std::uint8_t>(bytes.begin(), bytes.end())});
    }
    inbox.arrived.notify_all();
  }

  std::vector<std::uint8_t> receive(bool internal, int src, int dst, int tag) {
    Inbox& inbox = *inboxes_[static_cast<std::size_t>(dst)];
    std::unique_lock<std::mutex> lock(inbox.mutex);
    auto& queue = (internal ? inbox.internal_by_src
                            : inbox.user_by_src)[static_cast<std::size_t>(src)];
    while (true) {
      // MPI matching: earliest message from `src` whose tag matches.
      const auto it =
          std::find_if(queue.begin(), queue.end(), [tag](const Message& m) {
            return tag == kAnyTag || m.tag == tag;
          });
      if (it != queue.end()) {
        std::vector<std::uint8_t> bytes = std::move(it->bytes);
        queue.erase(it);
        return bytes;
      }
      require(!aborted_, "minimpi: communicator aborted (a peer rank threw)");
      inbox.arrived.wait(lock);
    }
  }

  void barrier_wait() {
    require(barrier_.arrive_and_wait(aborted_),
            "minimpi: communicator aborted (a peer rank threw)");
  }

  // --- split rendezvous -------------------------------------------------
  // Called after every rank has learned the full (color, key) table via
  // an internal allgather, so each participant computes identical
  // membership; the first rank of each color to arrive creates the
  // child group.
  std::shared_ptr<GroupState> split_group(long seq, int color, int group_size) {
    std::lock_guard<std::mutex> lock(split_mutex_);
    auto& slot = split_groups_[{seq, color}];
    if (!slot) slot = std::make_shared<GroupState>(group_size);
    return slot;
  }

  long next_split_seq(int rank) { return split_seq_[static_cast<std::size_t>(rank)]++; }

private:
  int size_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  Barrier barrier_;
  std::atomic<bool> aborted_{false};

  std::mutex split_mutex_;
  std::map<std::pair<long, int>, std::shared_ptr<GroupState>> split_groups_;
  std::vector<long> split_seq_;
};

} // namespace detail

const char* to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kProd: return "prod";
  }
  return "?";
}

namespace {

double apply_op(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kMin: return std::min(a, b);
    case ReduceOp::kMax: return std::max(a, b);
    case ReduceOp::kProd: return a * b;
  }
  fail("minimpi: unknown reduce op");
}

constexpr int kInternalTag = 0;

} // namespace

int Comm::size() const { return group_->size(); }

void Comm::copy_exact(const std::vector<std::uint8_t>& bytes, void* out, std::size_t n) {
  require(bytes.size() == n, "minimpi: typed receive size mismatch");
  std::memcpy(out, bytes.data(), n);
}

void Comm::send(int dest, int tag, std::span<const std::uint8_t> bytes) {
  group_->check_rank(dest, "send destination");
  require(tag >= 0, "minimpi: user tags must be non-negative");
  group_->deliver(/*internal=*/false, rank_, dest, tag, bytes);
}

std::vector<std::uint8_t> Comm::recv(int source, int tag) {
  group_->check_rank(source, "recv source");
  require(tag >= 0 || tag == kAnyTag, "minimpi: bad recv tag");
  return group_->receive(/*internal=*/false, source, rank_, tag);
}

void Comm::barrier() { group_->barrier_wait(); }

void Comm::broadcast(std::vector<std::uint8_t>& bytes, int root) {
  group_->check_rank(root, "broadcast root");
  if (size() == 1) return;
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) group_->deliver(true, rank_, r, kInternalTag, bytes);
  } else {
    bytes = group_->receive(true, root, rank_, kInternalTag);
  }
}

void Comm::reduce(std::span<const double> in, std::span<double> out, ReduceOp op,
                  int root) {
  group_->check_rank(root, "reduce root");
  if (rank_ == root) {
    require(out.size() == in.size(), "minimpi: reduce buffer size mismatch");
    std::copy(in.begin(), in.end(), out.begin());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      const std::vector<std::uint8_t> bytes = group_->receive(true, r, rank_, kInternalTag);
      require(bytes.size() == in.size() * sizeof(double),
              "minimpi: reduce contribution size mismatch");
      const auto* vals = reinterpret_cast<const double*>(bytes.data());
      for (std::size_t i = 0; i < in.size(); ++i) out[i] = apply_op(op, out[i], vals[i]);
    }
  } else {
    group_->deliver(true, rank_, root, kInternalTag,
                    std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(in.data()),
                        in.size() * sizeof(double)));
  }
}

void Comm::allreduce(std::span<const double> in, std::span<double> out, ReduceOp op) {
  require(out.size() == in.size(), "minimpi: allreduce buffer size mismatch");
  reduce(in, out, op, 0);
  std::vector<std::uint8_t> bytes;
  if (rank_ == 0)
    bytes.assign(reinterpret_cast<const std::uint8_t*>(out.data()),
                 reinterpret_cast<const std::uint8_t*>(out.data()) + out.size() * sizeof(double));
  broadcast(bytes, 0);
  if (rank_ != 0) {
    require(bytes.size() == out.size() * sizeof(double),
            "minimpi: allreduce result size mismatch");
    std::memcpy(out.data(), bytes.data(), bytes.size());
  }
}

double Comm::allreduce_scalar(double v, ReduceOp op) {
  double out = 0;
  allreduce(std::span<const double>(&v, 1), std::span<double>(&out, 1), op);
  return out;
}

std::vector<std::vector<std::uint8_t>> Comm::gather(std::span<const std::uint8_t> bytes,
                                                    int root) {
  group_->check_rank(root, "gather root");
  std::vector<std::vector<std::uint8_t>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)].assign(bytes.begin(), bytes.end());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = group_->receive(true, r, rank_, kInternalTag);
    }
  } else {
    group_->deliver(true, rank_, root, kInternalTag, bytes);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> Comm::allgather(
    std::span<const std::uint8_t> bytes) {
  std::vector<std::vector<std::uint8_t>> out = gather(bytes, 0);
  // Flatten into a length-prefixed envelope, broadcast, reslice.
  std::vector<std::uint8_t> packed;
  if (rank_ == 0) {
    for (const auto& chunk : out) {
      const std::uint64_t n = chunk.size();
      const auto* p = reinterpret_cast<const std::uint8_t*>(&n);
      packed.insert(packed.end(), p, p + sizeof n);
      packed.insert(packed.end(), chunk.begin(), chunk.end());
    }
  }
  broadcast(packed, 0);
  if (rank_ != 0) {
    out.clear();
    std::size_t pos = 0;
    while (pos < packed.size()) {
      require(pos + sizeof(std::uint64_t) <= packed.size(),
              "minimpi: corrupt allgather envelope");
      std::uint64_t n;
      std::memcpy(&n, packed.data() + pos, sizeof n);
      pos += sizeof n;
      require(pos + n <= packed.size(), "minimpi: corrupt allgather envelope");
      out.emplace_back(packed.begin() + static_cast<long>(pos),
                       packed.begin() + static_cast<long>(pos + n));
      pos += n;
    }
    require(static_cast<int>(out.size()) == size(),
            "minimpi: allgather chunk count mismatch");
  }
  return out;
}

std::vector<std::uint8_t> Comm::scatter(
    const std::vector<std::vector<std::uint8_t>>& chunks, int root) {
  group_->check_rank(root, "scatter root");
  if (rank_ == root) {
    require(static_cast<int>(chunks.size()) == size(),
            "minimpi: scatter needs one chunk per rank");
    for (int r = 0; r < size(); ++r)
      if (r != root) group_->deliver(true, rank_, r, kInternalTag, chunks[static_cast<std::size_t>(r)]);
    return chunks[static_cast<std::size_t>(root)];
  }
  return group_->receive(true, root, rank_, kInternalTag);
}

Comm Comm::split(int color, int key) {
  // Learn everyone's (color, key) through an internal allgather.
  struct Entry {
    int color, key, old_rank;
  };
  const Entry mine{color, key, rank_};
  const auto table = allgather(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(&mine), sizeof mine));

  std::vector<Entry> members;
  for (const auto& bytes : table) {
    require(bytes.size() == sizeof(Entry), "minimpi: split table corrupt");
    Entry e;
    std::memcpy(&e, bytes.data(), sizeof e);
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
  });
  int new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i)
    if (members[i].old_rank == rank_) new_rank = static_cast<int>(i);
  require(new_rank >= 0, "minimpi: split membership inconsistency");

  const long seq = group_->next_split_seq(rank_);
  auto child = group_->split_group(seq, color, static_cast<int>(members.size()));
  // A barrier on the parent keeps a fast rank from splitting the same
  // parent again (same seq, same color) before slow ranks grabbed the
  // child group.
  barrier();
  return Comm(std::move(child), new_rank);
}

void run_world(int size, const std::function<void(Comm&)>& fn) {
  auto group = std::make_shared<detail::GroupState>(size);

  std::mutex error_mutex;
  std::exception_ptr first_error;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(group, r);
      try {
        fn(comm);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        group->abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

} // namespace eth::mpi
