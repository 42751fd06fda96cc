// Deterministic fault injection for the replica communicator.
//
// The paper's Table 1 runs are synchronous across 8-32 TPU hosts; at that
// scale, dropped packets and straggling replicas are the normal case, not
// the exception. The simulated transport in dist/communicator.h consults a
// FaultInjector on every message send: a message may lose its first k
// deliveries (the receiver times out and retries) or arrive late (a
// straggler delay). All decisions are pure functions of (seed, message
// key), so a faulty run is bit-reproducible and — because message keys do
// not depend on thread scheduling — the injected fault set is identical
// for any worker interleaving.
#pragma once

#include <chrono>
#include <cstdint>

namespace s4tf::dist {

// Phases of the bucketed ring all-reduce plus the ring barrier. Part of
// every message key.
enum class MessagePhase : std::uint8_t {
  kScatter = 0,     // raw gradient chunk, source -> chunk owner
  kGather = 1,      // reduced chunk travelling the all-gather ring
  kBarrierIn = 2,   // barrier pass 1: token accumulates at rank 0
  kBarrierOut = 3,  // barrier pass 2: release travels the ring
};

// Uniquely identifies one logical message of one collective. `seq` is the
// per-communicator collective sequence number (every rank calls the same
// collectives in the same order, so ranks agree on it without
// synchronization).
struct MessageKey {
  MessagePhase phase = MessagePhase::kScatter;
  std::uint32_t seq = 0;     // < 2^25
  std::uint32_t bucket = 0;  // < 2^16
  std::uint16_t src = 0;     // < 2^10
  std::uint16_t chunk = 0;   // < 2^10, == owner rank within the bucket
  // Collision-free bit packing; CHECK-fails when a field is out of range.
  std::uint64_t Packed() const;
};

// Numeric corruption kinds for FaultPlan::corrupt_kind. kNaN/kInf model a
// numerical blowup inside one replica's backward pass; kBitflip models
// silent data corruption (a radiation/DRAM-style single-bit flip) in a
// buffer that every rank is supposed to agree on.
enum class CorruptKind : std::uint8_t {
  kNone = 0,
  kNaN = 1,
  kInf = 2,
  kBitflip = 3,
};

// What to inject. Probabilities are evaluated per message against a
// seeded hash, so "probability 1" means "every message" deterministically.
struct FaultPlan {
  std::uint64_t seed = 0;
  // P(a message loses its first deliveries). The receiver sees a timeout
  // per lost delivery and retries (bounded by CollectiveOptions).
  double drop_probability = 0.0;
  // How many consecutive deliveries a dropped message loses.
  int drops_per_event = 1;
  // P(a message is delayed by straggler_delay before becoming readable).
  double straggler_probability = 0.0;
  std::chrono::microseconds straggler_delay{0};

  // Permanent replica death (the fault drops and stragglers are not):
  // rank `death_rank` aborts every collective whose per-rank sequence
  // number is >= `death_seq` by throwing ReplicaDeadError at the
  // collective's entry, and never sends again. Peers waiting on its
  // messages exhaust their bounded retry budgets and fail loudly — the
  // signal nn::TrainingSession's elastic recovery consumes. Scheduling is
  // by (rank, seq), so the death is deterministic for any thread
  // interleaving, like every other injected fault. -1 = nobody dies.
  int death_rank = -1;
  std::uint32_t death_seq = 0;

  // Seeded numeric corruption (the test vector for the nn/guard.h
  // training guard): rank `corrupt_rank` has one gradient element struck
  // at training step `corrupt_seq`. Unlike death_seq, corrupt_seq is the
  // *group-local training-step index* counted by ReplicaGroup, not a
  // collective sequence number — a corruption poisons buffers, not
  // messages, so it is scheduled per step. The struck element index (and
  // the flipped bit, for kBitflip) are pure functions of (seed, step), so
  // a corrupt run is bit-reproducible for any thread interleaving and any
  // bucket submission order. kNaN/kInf strike
  // the rank's *local* gradient buffer before reduction (caught by the
  // guard's per-rank finite scan); kBitflip strikes the rank's
  // *post-collective agreement buffer* — the silent-data-corruption case
  // only the cross-replica digest vote can see. -1 = no corruption.
  int corrupt_rank = -1;
  std::int64_t corrupt_seq = -1;
  CorruptKind corrupt_kind = CorruptKind::kNone;

  bool enabled() const {
    return drop_probability > 0.0 || straggler_probability > 0.0 ||
           death_rank >= 0;
  }
};

// Which buffer a corruption strikes. The injection site passes the phase
// it owns; ApplyCorruption only fires when the planned kind targets it.
enum class CorruptPhase : std::uint8_t {
  kLocal = 0,      // local per-rank gradient buffer, before reduction
  kAgreement = 1,  // post-collective buffer every rank must agree on
};

// Applies the planned corruption to the [begin, end) slice of a buffer of
// `total` elements owned by `rank` at training step `step`. The struck
// index p is seeded in [0, total); the write happens only when p lands in
// [begin, end), so overlapped (per-bucket) and synchronous (whole-buffer)
// injection produce the identical final buffer. Returns true when an
// element was actually struck (counted in dist.fault.corruptions).
bool ApplyCorruption(const FaultPlan& plan, CorruptPhase phase, int rank,
                     std::int64_t step, float* data, std::int64_t total,
                     std::int64_t begin, std::int64_t end);

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  const FaultPlan& plan() const { return plan_; }

  // Number of deliveries of `key` lost before one gets through.
  int DropsFor(const MessageKey& key) const;

  // Extra latency before `key` becomes readable at the destination.
  std::chrono::microseconds DelayFor(const MessageKey& key) const;

  // True when `rank` is permanently dead for collective `seq` (and every
  // later one).
  bool DiesAt(int rank, std::uint32_t seq) const;

 private:
  // Uniform draw in [0, 1) determined by (seed, key, salt).
  double UnitDraw(const MessageKey& key, std::uint64_t salt) const;

  FaultPlan plan_;
};

}  // namespace s4tf::dist
