// The XLA-like JIT: optimization passes, executable, and compilation
// cache (paper §3.3-§3.4).
//
// Pipeline: CSE -> DCE -> elementwise fusion. Fusion is the headline
// domain-specific optimization: producer/consumer chains of elementwise
// ops collapse into one kernel that pays a single launch overhead and only
// external memory traffic on the simulated accelerator. "Because invoking
// the XLA JIT is computationally expensive, trace fragments are hashed to
// become keys in an XLA-program cache; each unique trace is only compiled
// by XLA once" — CompileCache below, with a compile-time cost model so the
// benches can account for JIT cost on misses.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "device/sim_accelerator.h"
#include "xla/hlo.h"

namespace s4tf::xla {

struct CompileOptions {
  bool enable_algebraic_simplify = true;
  bool enable_cse = true;
  bool enable_dce = true;
  bool enable_fusion = true;
  // Epilogue fusion: elementwise consumer chains (bias-add, ReLU,
  // residual-add, scale...) hanging off a MatMul/Conv2D fold into the
  // producing kernel and execute via the epilogue-aware tiled kernels.
  // Effective only when enable_fusion is true: with enable_fusion=false
  // every instruction runs and is priced as its own kernel.
  bool enable_epilogue_fusion = true;
  // Liveness-based buffer reuse: intermediate outputs are assigned into a
  // bounded arena of recycled slots, released at their last use during
  // Run(), with the peak footprint charged to the cost model (vs. the sum
  // of all intermediates without reuse). Effective only when enable_fusion
  // is true.
  bool enable_buffer_reuse = true;
};

// --- Optimization passes (exposed for unit tests and ablations). Each
// returns the number of instructions eliminated/affected and rewrites the
// module.
int RunHloCse(HloModule& module);
int RunHloDce(HloModule& module);

namespace internal {

// RunHloCse with each instruction's 64-bit hash passed through `key`
// before the candidate lookup. A hash only selects candidates; a merge
// still needs the instructions to be identical. A test seam: a constant
// `key` makes every instruction collide with every other.
int RunHloCseKeyed(HloModule& module, std::uint64_t (*key)(std::uint64_t));

}  // namespace internal

// Algebraic simplification: removes provable no-ops —
//   x * 1, x + (-0), x ^ 1 (scalar-attr forms), neg(neg(x)),
//   reshape/broadcast to the operand's own shape,
//   transpose(transpose(x)) composing to the identity permutation.
// AD-generated code is full of these (e.g. `grad * 1.0f` seeds), which is
// the paper's "AD output is amenable to the same optimizations" claim in
// HLO form. Returns the number of instructions bypassed.
int RunHloAlgebraicSimplify(HloModule& module);

// One elementwise consumer chain folded into the epilogue of its producing
// MatMul/Conv2D. `ops` is the chain in dataflow order; the last op's value
// is the only one that materializes — the anchor's raw output and the
// intermediate links live in the kernel's register tile.
struct EpilogueChain {
  HloId anchor = -1;
  std::vector<HloId> ops;
  HloId result() const { return ops.empty() ? anchor : ops.back(); }
};

// Epilogue-fusion analysis: for every kMatMul/kConv2D (visited in id
// order, so the result is deterministic for any CSE/DCE history) extend a
// chain through sole-user elementwise consumers of the anchor's shape that
// the epilogue-aware kernels support. Binary links may read one external
// operand (same shape, a last-dim bias vector, or a scalar).
std::vector<EpilogueChain> ComputeEpilogueChains(const HloModule& module);

// Assigns a fusion group id to every instruction (elementwise
// producer-consumer chains where the producer has a single user merge into
// one group). Returns group ids indexed by instruction, canonicalized to
// each group's minimum member id so identical programs always get
// identical partitions regardless of union order.
std::vector<int> ComputeFusionGroups(const HloModule& module);

// Overload that additionally merges each epilogue chain into its anchor's
// group and keeps chain members out of the generic elementwise merging
// (their values never materialize, so they cannot host other fusions).
std::vector<int> ComputeFusionGroups(const HloModule& module,
                                     const std::vector<EpilogueChain>& chains);

// Liveness-based buffer-reuse plan: last use per HLO value (with epilogue
// chain members executing at their chain result's position), release lists
// for the executable's steps, and a best-fit arena simulation giving the
// peak footprint.
struct BufferPlan {
  // Sum of the arena slot sizes at the end of the program walk = the
  // bounded footprint all intermediates execute in with reuse on.
  std::int64_t peak_arena_bytes = 0;
  // Sum of every defined value's bytes = the footprint without reuse.
  std::int64_t unreused_bytes = 0;
  std::int64_t arena_slots = 0;
  // release_after[i] = values whose last use is instruction i (never
  // roots); it becomes the release list of the step whose result is i.
  std::vector<std::vector<HloId>> release_after;
};
BufferPlan PlanBuffers(const HloModule& module,
                       const std::vector<EpilogueChain>& chains);

// One device kernel after fusion: a set of instructions executed as a
// single launch with only external memory traffic.
struct FusedKernel {
  std::vector<HloId> instructions;
  std::int64_t flops = 0;
  std::int64_t external_bytes = 0;
};

class Executable {
 public:
  // One host kernel dispatch, in program order. A plain step evaluates
  // `anchor` into `result` (the same id). An epilogue step runs its
  // MatMul/Conv2D anchor with `ops` folded in and defines the chain
  // result; operands[i] is the HLO id of ops[i]'s external operand (-1
  // for a unary link), bound to ops[i].operand when the step runs.
  // `release` holds the values whose last use is this step (never roots);
  // Run() drops their buffers right after it.
  struct Step {
    HloId anchor = -1;
    HloId result = -1;
    std::vector<kernels::EpilogueOp> ops;
    std::vector<HloId> operands;
    std::vector<HloId> release;
  };

  Executable(HloModule module, std::vector<FusedKernel> kernels,
             std::vector<Step> steps, std::int64_t arena_peak_bytes,
             std::int64_t arena_unreused_bytes,
             std::int64_t arena_charge_bytes)
      : module_(std::move(module)),
        kernels_(std::move(kernels)),
        steps_(std::move(steps)),
        arena_peak_bytes_(arena_peak_bytes),
        arena_unreused_bytes_(arena_unreused_bytes),
        arena_charge_bytes_(arena_charge_bytes) {}

  // Evaluates the program on concrete parameters. If `accelerator` is
  // given, charges one (fused) kernel per FusedKernel plus the arena
  // footprint to its clock.
  std::vector<Literal> Run(const std::vector<Literal>& parameters,
                           SimAccelerator* accelerator = nullptr) const;

  const HloModule& module() const { return module_; }
  std::int64_t kernel_count() const {
    return static_cast<std::int64_t>(kernels_.size());
  }
  const std::vector<FusedKernel>& kernels() const { return kernels_; }
  const std::vector<Step>& steps() const { return steps_; }

  // Charges one execution's device cost without evaluating the numerics.
  // Used by the table harnesses to simulate paper-scale shapes (batch-128
  // ImageNet-class programs) whose CPU evaluation would be impractical;
  // the cost comes from the same per-kernel model as Run().
  void ChargeTo(SimAccelerator& accelerator) const {
    for (const FusedKernel& kernel : kernels_) {
      accelerator.ChargeFusedKernel(kernel.flops, kernel.external_bytes);
    }
    if (arena_charge_bytes_ > 0) accelerator.ChargeArena(arena_charge_bytes_);
  }

  // Total flops / external bytes of one execution (for reporting).
  std::int64_t total_flops() const {
    std::int64_t total = 0;
    for (const FusedKernel& k : kernels_) total += k.flops;
    return total;
  }

  // Buffer-plan reporting: the peak arena footprint with reuse, the
  // unreused sum, and what one execution is actually charged. All three
  // are 0 when enable_fusion is off: only fused programs model an arena.
  std::int64_t arena_peak_bytes() const { return arena_peak_bytes_; }
  std::int64_t arena_unreused_bytes() const { return arena_unreused_bytes_; }
  std::int64_t arena_charge_bytes() const { return arena_charge_bytes_; }
  // Number of elementwise ops folded into MatMul/Conv2D epilogues.
  std::int64_t epilogue_folded_ops() const {
    std::int64_t folded = 0;
    for (const Step& step : steps_) {
      folded += static_cast<std::int64_t>(step.ops.size());
    }
    return folded;
  }

 private:
  HloModule module_;
  std::vector<FusedKernel> kernels_;
  std::vector<Step> steps_;
  std::int64_t arena_peak_bytes_ = 0;
  std::int64_t arena_unreused_bytes_ = 0;
  std::int64_t arena_charge_bytes_ = 0;
};

struct CompileResult {
  std::shared_ptr<Executable> executable;
  double compile_seconds = 0.0;  // modeled JIT cost
};

CompileResult Compile(HloModule module, const CompileOptions& options = {});

// The XLA-program cache keyed by HloModule::Fingerprint().
class CompileCache {
 public:
  explicit CompileCache(CompileOptions options = {})
      : options_(std::move(options)) {}

  // Returns the executable for `module`, compiling on a miss.
  // `compile_seconds` (optional) receives the modeled JIT cost paid by
  // THIS call (0 on a hit).
  std::shared_ptr<Executable> GetOrCompile(const HloModule& module,
                                           double* compile_seconds = nullptr);

  std::int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  double total_compile_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_compile_seconds_;
  }
  // Number of cached executables.
  std::size_t size() const;
  // Resets the cache to its freshly-constructed state: compiled programs
  // are dropped AND the hit/miss/compile-time statistics are zeroed, so
  // back-to-back ablation runs that Clear() between them start from
  // identical counters instead of leaking the previous run's totals.
  void Clear();

 private:
  CompileOptions options_;
  // Guards cache_ and total_compile_seconds_. hits_/misses_ are atomic so
  // the accessors stay lock-free (benches poll them mid-run); every other
  // member is only touched under the lock.
  mutable std::mutex mutex_;
  // Keyed by Fingerprint(), which skips constant payloads, so one key may
  // hold several programs; each entry keeps the module it was compiled
  // from, and a lookup hits only an entry whose module is SameProgramAs()
  // the one asked for.
  struct Entry {
    HloModule module;
    std::shared_ptr<Executable> executable;
  };
  std::map<std::uint64_t, std::vector<Entry>> cache_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  double total_compile_seconds_ = 0.0;
};

}  // namespace s4tf::xla
