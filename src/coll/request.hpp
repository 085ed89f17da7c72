// Nonblocking collective requests.
//
// A CollOp is a poll-driven state machine over the chunk channels: progress()
// advances it as far as the already-arrived chunks allow and reports
// completion; wait() blocks (with the team's poisoned-error/watchdog
// semantics) until done. Completion is purely local — every expected chunk
// received and every outgoing chunk pushed — so a finished rank never needs
// to keep progressing on behalf of its peers.
//
// CollRequest is the movable handle Communicator::i_all_reduce/i_all_gather
// return. A default-constructed request is already complete (the blocking
// fallback for naive policy, single-rank teams and empty payloads).
#pragma once

#include <memory>
#include <utility>

namespace chase::coll {

class CollOp {
 public:
  virtual ~CollOp() = default;

  /// Advance as far as possible without blocking; true once complete.
  /// Idempotent after completion.
  virtual bool progress() = 0;

  /// Block until complete (poison-aware; may throw TeamAborted).
  virtual void wait() = 0;
};

/// Runs `fn` exactly once when the wrapped op completes — the dispatch layer
/// uses it to apply completion-time effects (allreduce.corrupt injection,
/// perf accounting) regardless of whether the caller finishes the request
/// via test() or wait().
template <typename Fn>
class WithCompletion final : public CollOp {
 public:
  WithCompletion(std::unique_ptr<CollOp> op, Fn fn)
      : op_(std::move(op)), fn_(std::move(fn)) {}

  bool progress() override {
    if (!op_->progress()) return false;
    finish();
    return true;
  }

  void wait() override {
    op_->wait();
    finish();
  }

 private:
  void finish() {
    if (finished_) return;
    finished_ = true;
    fn_();
  }

  std::unique_ptr<CollOp> op_;
  Fn fn_;
  bool finished_ = false;
};

class CollRequest {
 public:
  CollRequest() = default;
  explicit CollRequest(std::unique_ptr<CollOp> op) : op_(std::move(op)) {}

  CollRequest(CollRequest&&) noexcept = default;
  CollRequest& operator=(CollRequest&& o) {
    if (this != &o) {
      wait();  // never silently drop an in-flight operation
      op_ = std::move(o.op_);
    }
    return *this;
  }
  CollRequest(const CollRequest&) = delete;
  CollRequest& operator=(const CollRequest&) = delete;

  /// Nonblocking completion probe (MPI_Test).
  bool test() {
    if (op_ == nullptr) return true;
    if (!op_->progress()) return false;
    op_.reset();
    return true;
  }

  /// Block until complete (MPI_Wait).
  void wait() {
    if (op_ == nullptr) return;
    op_->wait();
    op_.reset();
  }

  /// True if the operation has been observed complete (via test()/wait()).
  bool done() const { return op_ == nullptr; }

  ~CollRequest() {
    // A request abandoned during unwind must not leave peers with a silent
    // partner; drain it, swallowing the TeamAborted the unwind is likely
    // already carrying.
    if (op_ == nullptr) return;
    try {
      op_->wait();
    } catch (...) {
    }
  }

 private:
  std::unique_ptr<CollOp> op_;
};

}  // namespace chase::coll
