#include "xla/compiler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/hashing.h"

namespace s4tf::xla {

namespace {

obs::Counter& CacheHitCounter() {
  static obs::Counter* counter = obs::GetCounter("xla.cache.hits");
  return *counter;
}

obs::Counter& CacheMissCounter() {
  static obs::Counter* counter = obs::GetCounter("xla.cache.misses");
  return *counter;
}

// Arena footprint one execution of the most recently compiled executable
// is charged (peak with reuse on, unreused sum with it off).
obs::Gauge& ArenaPeakGauge() {
  static obs::Gauge* gauge = obs::GetGauge("xla.arena.peak_bytes");
  return *gauge;
}

obs::Counter& EpilogueChainCounter() {
  static obs::Counter* counter = obs::GetCounter("xla.epilogue.chains");
  return *counter;
}

obs::Counter& EpilogueFoldedCounter() {
  static obs::Counter* counter = obs::GetCounter("xla.epilogue.folded_ops");
  return *counter;
}

// Modeled JIT cost: XLA compilations take O(100ms) for real models, so
// the model scales with program size.
constexpr double kCompileSecondsFixed = 2e-3;
constexpr double kCompileSecondsPerInstruction = 50e-6;

// Times one optimization pass: wall-clock into a per-pass histogram
// (xla.pass.<name>) plus a span when tracing is on. Wall-clock histograms
// are reporting-only and excluded from the determinism contract.
class PassTimer {
 public:
  PassTimer(const char* span_name, obs::Histogram* histogram)
      : histogram_(histogram),
        span_(span_name, "xla"),
        start_(std::chrono::steady_clock::now()) {}

  ~PassTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Record(std::chrono::duration<double>(elapsed).count());
  }

 private:
  obs::Histogram* histogram_;
  obs::TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

struct PassHistograms {
  obs::Histogram* algebraic_simplify;
  obs::Histogram* cse;
  obs::Histogram* dce;
  obs::Histogram* fusion;
  obs::Histogram* epilogue_fusion;
  obs::Histogram* buffer_reuse;

  static PassHistograms& Get() {
    static PassHistograms histograms = {
        obs::GetHistogram("xla.pass.algebraic_simplify"),
        obs::GetHistogram("xla.pass.cse"),
        obs::GetHistogram("xla.pass.dce"),
        obs::GetHistogram("xla.pass.fusion"),
        obs::GetHistogram("xla.pass.epilogue_fusion"),
        obs::GetHistogram("xla.pass.buffer_reuse"),
    };
    return histograms;
  }
};

// Rebuilds the module keeping only instructions in `keep` (which must be
// closed under operands), remapping ids and roots.
HloModule RebuildModule(const HloModule& module, const std::vector<bool>& keep,
                        const std::vector<HloId>& replacement) {
  HloModule rebuilt(module.name());
  std::vector<HloId> remap(module.instructions().size(), -1);

  // Resolve replacement chains (CSE may map a->b where b survives).
  auto resolve = [&](HloId id) {
    HloId r = id;
    while (replacement[static_cast<std::size_t>(r)] != r) {
      r = replacement[static_cast<std::size_t>(r)];
    }
    return r;
  };

  for (const HloInstruction& inst : module.instructions()) {
    if (!keep[static_cast<std::size_t>(inst.id)]) continue;
    std::vector<HloId> operands;
    operands.reserve(inst.operands.size());
    for (HloId op : inst.operands) {
      const HloId r = remap[static_cast<std::size_t>(resolve(op))];
      S4TF_CHECK_GE(r, 0) << "operand dropped by rebuild";
      operands.push_back(r);
    }
    HloId fresh;
    if (inst.kind == OpKind::kParameter) {
      fresh = rebuilt.AddParameter(inst.shape, inst.parameter_index);
    } else if (inst.kind == OpKind::kConstant) {
      fresh = rebuilt.AddConstant(inst.literal);
    } else {
      fresh = rebuilt.AddInstruction(inst.kind, std::move(operands),
                                     inst.attrs);
    }
    remap[static_cast<std::size_t>(inst.id)] = fresh;
  }
  for (HloId root : module.roots()) {
    rebuilt.AddRoot(remap[static_cast<std::size_t>(resolve(root))]);
  }
  return rebuilt;
}

}  // namespace

int RunHloCse(HloModule& module) {
  return internal::RunHloCseKeyed(module,
                                  [](std::uint64_t hash) { return hash; });
}

namespace internal {

int RunHloCseKeyed(HloModule& module, std::uint64_t (*key)(std::uint64_t)) {
  // The hash covers kind, attrs, param index, the operands after
  // replacement, and a constant's bytes. It only selects candidates: every
  // kept instruction stays listed under its key, and an instruction merges
  // into the first candidate that is identical to it, operands resolved.
  std::map<std::uint64_t, std::vector<HloId>> seen;
  std::vector<HloId> replacement(module.instructions().size());
  std::iota(replacement.begin(), replacement.end(), 0);
  std::vector<bool> keep(module.instructions().size(), true);
  int eliminated = 0;

  auto resolve = [&](HloId id) {
    while (replacement[static_cast<std::size_t>(id)] != id) {
      id = replacement[static_cast<std::size_t>(id)];
    }
    return id;
  };
  auto identical = [&](const HloInstruction& a, const HloInstruction& b) {
    if (a.operands.size() != b.operands.size() ||
        !SameInstructionIgnoringOperands(a, b)) {
      return false;
    }
    for (std::size_t i = 0; i < a.operands.size(); ++i) {
      if (resolve(a.operands[i]) != resolve(b.operands[i])) return false;
    }
    return true;
  };

  for (const HloInstruction& inst : module.instructions()) {
    std::uint64_t h = HashCombine(0, static_cast<std::uint64_t>(inst.kind));
    h = inst.attrs.Hash(h);
    h = HashCombine(h, static_cast<std::uint64_t>(inst.parameter_index));
    for (HloId op : inst.operands) {
      h = HashCombine(h, static_cast<std::uint64_t>(resolve(op)));
    }
    if (inst.kind == OpKind::kConstant) {
      h = HashBytes(inst.literal.data.data(),
                    static_cast<std::size_t>(inst.literal.size()) *
                        sizeof(float),
                    h);
    }
    std::vector<HloId>& candidates = seen[key(h)];
    const auto match =
        std::find_if(candidates.begin(), candidates.end(), [&](HloId c) {
          return identical(inst, module.instruction(c));
        });
    if (match == candidates.end()) {
      candidates.push_back(inst.id);
      continue;
    }
    replacement[static_cast<std::size_t>(inst.id)] = *match;
    keep[static_cast<std::size_t>(inst.id)] = false;
    ++eliminated;
  }
  if (eliminated > 0) module = RebuildModule(module, keep, replacement);
  return eliminated;
}

}  // namespace internal

int RunHloDce(HloModule& module) {
  std::vector<bool> live(module.instructions().size(), false);
  std::vector<HloId> stack(module.roots().begin(), module.roots().end());
  while (!stack.empty()) {
    const HloId id = stack.back();
    stack.pop_back();
    if (live[static_cast<std::size_t>(id)]) continue;
    live[static_cast<std::size_t>(id)] = true;
    for (HloId op : module.instruction(id).operands) stack.push_back(op);
  }
  // Parameters are part of the calling convention: always kept.
  for (const HloInstruction& inst : module.instructions()) {
    if (inst.kind == OpKind::kParameter) {
      live[static_cast<std::size_t>(inst.id)] = true;
    }
  }
  int removed = 0;
  for (bool l : live) {
    if (!l) ++removed;
  }
  if (removed > 0) {
    std::vector<HloId> identity(module.instructions().size());
    std::iota(identity.begin(), identity.end(), 0);
    module = RebuildModule(module, live, identity);
  }
  return removed;
}

namespace {

// Classifies how a binary epilogue link's external operand maps onto the
// anchor output, or nullopt when the broadcast pattern is one the fused
// kernels cannot serve from the register tile (e.g. a column vector).
std::optional<kernels::EpilogueOp::Map> ClassifyEpilogueOperand(
    const Shape& operand, const Shape& out) {
  using Map = kernels::EpilogueOp::Map;
  if (operand == out) return Map::kFull;
  if (operand.NumElements() == 1) return Map::kScalar;
  if (operand.rank() >= 1 && out.rank() >= 1 &&
      operand.dim(operand.rank() - 1) == out.dim(out.rank() - 1) &&
      operand.NumElements() == out.dim(out.rank() - 1)) {
    return Map::kLastDim;
  }
  return std::nullopt;
}

// Where each instruction executes: chain members (the anchor and every
// link) at their chain result's step, every other instruction at its own
// id, and parameters and constants nowhere (-1: they are bound, not
// computed). An instruction defines a value iff its site is its own id.
std::vector<HloId> ExecutionSites(const HloModule& module,
                                  const std::vector<EpilogueChain>& chains) {
  std::vector<HloId> site(module.instructions().size());
  for (const HloInstruction& inst : module.instructions()) {
    const bool bound = inst.kind == OpKind::kParameter ||
                       inst.kind == OpKind::kConstant;
    site[static_cast<std::size_t>(inst.id)] = bound ? -1 : inst.id;
  }
  for (const EpilogueChain& chain : chains) {
    site[static_cast<std::size_t>(chain.anchor)] = chain.result();
    for (HloId op : chain.ops) {
      site[static_cast<std::size_t>(op)] = chain.result();
    }
  }
  return site;
}

}  // namespace

std::vector<EpilogueChain> ComputeEpilogueChains(const HloModule& module) {
  const std::size_t n = module.instructions().size();
  const std::vector<int> uses = module.UseCounts();

  // Sole consumer of each single-use value. UseCounts() counts each root
  // reference as a use, so a value that is a root AND has one consumer
  // shows 2 uses and never chains — root values always materialize.
  std::vector<HloId> sole_user(n, -1);
  for (const HloInstruction& inst : module.instructions()) {
    for (HloId op : inst.operands) {
      if (uses[static_cast<std::size_t>(op)] == 1) {
        sole_user[static_cast<std::size_t>(op)] = inst.id;
      }
    }
  }

  std::vector<EpilogueChain> chains;
  // claimed: in some chain (any role). folded: anchor or intermediate —
  // the value never materializes, so later chains must not read it.
  std::vector<bool> claimed(n, false);
  std::vector<bool> folded(n, false);

  for (const HloInstruction& inst : module.instructions()) {
    if (inst.kind != OpKind::kMatMul && inst.kind != OpKind::kConv2D) {
      continue;
    }
    EpilogueChain chain;
    chain.anchor = inst.id;
    HloId tail = inst.id;
    while (true) {
      if (uses[static_cast<std::size_t>(tail)] != 1) break;
      const HloId u = sole_user[static_cast<std::size_t>(tail)];
      if (u < 0 || claimed[static_cast<std::size_t>(u)]) break;
      const HloInstruction& user = module.instruction(u);
      if (user.shape != inst.shape) break;
      // Any unary or binary elementwise op can be a link (the kernels run
      // it through the same table as the standalone op); kSelect cannot.
      const int arity = OpArity(user.kind);
      if (!IsElementwise(user.kind) || (arity != 1 && arity != 2)) break;
      if (arity == 2) {
        const HloId other =
            user.operands[0] == tail ? user.operands[1] : user.operands[0];
        // A folded value never materializes, so it cannot feed this link.
        if (folded[static_cast<std::size_t>(other)]) break;
        if (!ClassifyEpilogueOperand(module.instruction(other).shape,
                                     inst.shape)) {
          break;
        }
      }
      claimed[static_cast<std::size_t>(u)] = true;
      chain.ops.push_back(u);
      tail = u;
    }
    if (chain.ops.empty()) continue;
    claimed[static_cast<std::size_t>(chain.anchor)] = true;
    folded[static_cast<std::size_t>(chain.anchor)] = true;
    for (std::size_t i = 0; i + 1 < chain.ops.size(); ++i) {
      folded[static_cast<std::size_t>(chain.ops[i])] = true;
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

std::vector<int> ComputeFusionGroups(const HloModule& module) {
  return ComputeFusionGroups(module, {});
}

std::vector<int> ComputeFusionGroups(
    const HloModule& module, const std::vector<EpilogueChain>& chains) {
  const std::size_t n = module.instructions().size();
  std::vector<int> group(n);
  std::iota(group.begin(), group.end(), 0);

  // Union-find.
  std::function<int(int)> find = [&](int x) {
    while (group[static_cast<std::size_t>(x)] != x) {
      group[static_cast<std::size_t>(x)] =
          group[static_cast<std::size_t>(group[static_cast<std::size_t>(x)])];
      x = group[static_cast<std::size_t>(x)];
    }
    return x;
  };

  // Epilogue chains are kernels by fiat: members share the anchor's group
  // and stay out of the generic elementwise merging below (their values
  // live in the kernel's register tile, not in memory).
  std::vector<bool> in_chain(n, false);
  for (const EpilogueChain& chain : chains) {
    in_chain[static_cast<std::size_t>(chain.anchor)] = true;
    for (HloId op : chain.ops) {
      group[static_cast<std::size_t>(find(op))] = find(chain.anchor);
      in_chain[static_cast<std::size_t>(op)] = true;
    }
  }

  const std::vector<int> uses = module.UseCounts();
  for (const HloInstruction& inst : module.instructions()) {
    if (!IsElementwise(inst.kind)) continue;
    if (in_chain[static_cast<std::size_t>(inst.id)]) continue;
    for (HloId op : inst.operands) {
      const HloInstruction& producer = module.instruction(op);
      // Fuse an elementwise producer with a single consumer into this
      // instruction's kernel (classic XLA producer-consumer fusion).
      if (IsElementwise(producer.kind) &&
          !in_chain[static_cast<std::size_t>(op)] &&
          uses[static_cast<std::size_t>(op)] == 1 &&
          producer.shape == inst.shape) {
        group[static_cast<std::size_t>(find(producer.id))] = find(inst.id);
      }
    }
  }
  // Canonicalize every group id to its minimum member: the partition is
  // then a pure function of the module's structure, independent of the
  // union order above (satellite of the determinism contract).
  std::vector<int> canonical(n, -1);
  std::vector<int> result(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int root = find(static_cast<int>(i));
    if (canonical[static_cast<std::size_t>(root)] < 0) {
      canonical[static_cast<std::size_t>(root)] = static_cast<int>(i);
    }
    result[i] = canonical[static_cast<std::size_t>(root)];
  }
  return result;
}

BufferPlan PlanBuffers(const HloModule& module,
                       const std::vector<EpilogueChain>& chains) {
  const std::size_t n = module.instructions().size();
  BufferPlan plan;
  plan.release_after.resize(n);

  const std::vector<HloId> site = ExecutionSites(module, chains);
  const auto is_value = [&](HloId id) {
    return site[static_cast<std::size_t>(id)] == id;
  };

  // Last use per value, in execution sites. Initialized to the def site so
  // a value nothing reads (possible with DCE off) frees immediately.
  constexpr HloId kLive = std::numeric_limits<HloId>::max();
  std::vector<HloId> last_use(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_value(static_cast<HloId>(i))) {
      last_use[i] = site[i];
    }
  }
  for (const HloInstruction& inst : module.instructions()) {
    for (HloId op : inst.operands) {
      last_use[static_cast<std::size_t>(op)] =
          std::max(last_use[static_cast<std::size_t>(op)],
                   site[static_cast<std::size_t>(inst.id)]);
    }
  }
  // Roots are the caller's outputs: never released.
  for (HloId root : module.roots()) {
    last_use[static_cast<std::size_t>(root)] = kLive;
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (is_value(static_cast<HloId>(v)) && last_use[v] != kLive) {
      plan.release_after[static_cast<std::size_t>(last_use[v])].push_back(
          static_cast<HloId>(v));
    }
  }

  // Best-fit arena simulation over the program walk: each defined value
  // takes the smallest free slot that fits (growing it is a fresh slot),
  // and returns its slot right after its last use executes — AFTER the def
  // at that site takes its own slot, because a kernel's inputs stay live
  // while its output is written (no in-place aliasing).
  std::vector<std::int64_t> slot_bytes;
  std::multimap<std::int64_t, int> free_by_size;
  std::vector<int> slot_of(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_value(static_cast<HloId>(i))) {
      const std::int64_t bytes =
          module.instruction(static_cast<HloId>(i)).shape.NumElements() * 4;
      plan.unreused_bytes += bytes;
      auto it = free_by_size.lower_bound(bytes);
      if (it != free_by_size.end()) {
        slot_of[i] = it->second;
        free_by_size.erase(it);
      } else {
        slot_of[i] = static_cast<int>(slot_bytes.size());
        slot_bytes.push_back(bytes);
      }
    }
    for (HloId v : plan.release_after[i]) {
      const int slot = slot_of[static_cast<std::size_t>(v)];
      free_by_size.emplace(slot_bytes[static_cast<std::size_t>(slot)], slot);
    }
  }
  for (std::int64_t bytes : slot_bytes) plan.peak_arena_bytes += bytes;
  plan.arena_slots = static_cast<std::int64_t>(slot_bytes.size());
  return plan;
}

std::vector<Literal> Executable::Run(const std::vector<Literal>& parameters,
                                     SimAccelerator* accelerator) const {
  S4TF_CHECK_EQ(static_cast<int>(parameters.size()),
                module_.num_parameters())
      << "parameter count mismatch for " << module_.name();

  // An unbound or released slot holds no buffer, and reading one throws.
  std::vector<std::optional<Literal>> env(module_.instructions().size());
  const auto value = [&env](HloId id) -> const Literal& {
    return env[static_cast<std::size_t>(id)].value();
  };
  for (const HloInstruction& inst : module_.instructions()) {
    const auto id = static_cast<std::size_t>(inst.id);
    if (inst.kind == OpKind::kParameter) {
      env[id] = parameters[static_cast<std::size_t>(inst.parameter_index)];
    } else if (inst.kind == OpKind::kConstant) {
      env[id] = inst.literal;
    }
  }

  std::vector<const Literal*> inputs;
  for (const Step& step : steps_) {
    const HloInstruction& anchor = module_.instruction(step.anchor);
    inputs.clear();
    for (HloId op : anchor.operands) inputs.push_back(&value(op));
    std::optional<Literal>& result =
        env[static_cast<std::size_t>(step.result)];
    if (step.ops.empty()) {
      result = EvalOpLiteral(anchor.kind, inputs, anchor.attrs);
    } else {
      // Run is const and may run concurrently, so the operand pointers
      // are bound into a per-call copy of the chain.
      std::vector<kernels::EpilogueOp> epilogue = step.ops;
      for (std::size_t i = 0; i < epilogue.size(); ++i) {
        if (step.operands[i] < 0) continue;
        const Literal& operand = value(step.operands[i]);
        epilogue[i].operand = operand.data.data();
        epilogue[i].operand_elements = operand.size();
      }
      result = EvalFusedOpLiteral(anchor.kind, inputs, anchor.attrs, epilogue);
    }
    // Buffer reuse: drop values whose last use just executed, so the host
    // working set tracks the planner's arena instead of the whole trace.
    for (HloId v : step.release) env[static_cast<std::size_t>(v)].reset();
  }
  if (accelerator != nullptr) ChargeTo(*accelerator);

  std::vector<Literal> outputs;
  outputs.reserve(module_.roots().size());
  for (HloId root : module_.roots()) outputs.push_back(value(root));
  return outputs;
}

int RunHloAlgebraicSimplify(HloModule& module) {
  std::vector<HloId> replacement(module.instructions().size());
  std::iota(replacement.begin(), replacement.end(), 0);
  std::vector<bool> keep(module.instructions().size(), true);
  int simplified = 0;

  auto resolve = [&](HloId id) {
    while (replacement[static_cast<std::size_t>(id)] != id) {
      id = replacement[static_cast<std::size_t>(id)];
    }
    return id;
  };
  auto bypass = [&](const HloInstruction& inst, HloId target) {
    replacement[static_cast<std::size_t>(inst.id)] = resolve(target);
    keep[static_cast<std::size_t>(inst.id)] = false;
    ++simplified;
  };

  for (const HloInstruction& inst : module.instructions()) {
    const auto operand = [&](std::size_t i) -> const HloInstruction& {
      return module.instruction(resolve(inst.operands[i]));
    };
    switch (inst.kind) {
      case OpKind::kMulScalar:
        if (inst.attrs.scalar == 1.0f) bypass(inst, inst.operands[0]);
        break;
      case OpKind::kAddScalar:
        // Only -0 is an identity: -0 + (+0) is +0, but x + (-0) is x for
        // every x.
        if (inst.attrs.scalar == 0.0f && std::signbit(inst.attrs.scalar)) {
          bypass(inst, inst.operands[0]);
        }
        break;
      case OpKind::kPowScalar:
        if (inst.attrs.scalar == 1.0f) bypass(inst, inst.operands[0]);
        break;
      case OpKind::kNeg:
        if (operand(0).kind == OpKind::kNeg) {
          bypass(inst, operand(0).operands[0]);
        }
        break;
      case OpKind::kReshape:
      case OpKind::kBroadcastTo:
        if (inst.shape == operand(0).shape) bypass(inst, inst.operands[0]);
        break;
      case OpKind::kTranspose: {
        const HloInstruction& inner = operand(0);
        if (inner.kind == OpKind::kTranspose) {
          bool identity = true;
          for (std::size_t i = 0; i < inst.attrs.axes.size(); ++i) {
            const auto composed = inner.attrs.axes[static_cast<std::size_t>(
                inst.attrs.axes[i])];
            if (composed != static_cast<std::int64_t>(i)) {
              identity = false;
              break;
            }
          }
          if (identity) bypass(inst, inner.operands[0]);
        }
        break;
      }
      default:
        break;
    }
  }
  if (simplified > 0) module = RebuildModule(module, keep, replacement);
  return simplified;
}

CompileResult Compile(HloModule module, const CompileOptions& options) {
  obs::TraceSpan compile_span("xla.compile", "xla", "instructions",
                              module.instruction_count());
  PassHistograms& pass_histograms = PassHistograms::Get();
  const std::int64_t original_size = module.instruction_count();
  if (options.enable_algebraic_simplify) {
    PassTimer timer("xla.pass.algebraic_simplify",
                    pass_histograms.algebraic_simplify);
    RunHloAlgebraicSimplify(module);
  }
  if (options.enable_cse) {
    PassTimer timer("xla.pass.cse", pass_histograms.cse);
    RunHloCse(module);
  }
  if (options.enable_dce) {
    PassTimer timer("xla.pass.dce", pass_histograms.dce);
    RunHloDce(module);
  }

  std::vector<EpilogueChain> chains;
  if (options.enable_fusion && options.enable_epilogue_fusion) {
    PassTimer timer("xla.pass.epilogue_fusion",
                    pass_histograms.epilogue_fusion);
    chains = ComputeEpilogueChains(module);
    EpilogueChainCounter().Add(static_cast<std::int64_t>(chains.size()));
    for (const EpilogueChain& chain : chains) {
      EpilogueFoldedCounter().Add(static_cast<std::int64_t>(chain.ops.size()));
    }
  }

  const std::vector<HloId> site = ExecutionSites(module, chains);
  std::vector<int> groups;
  if (options.enable_fusion) {
    PassTimer timer("xla.pass.fusion", pass_histograms.fusion);
    groups = ComputeFusionGroups(module, chains);
  } else {
    groups.resize(static_cast<std::size_t>(module.instruction_count()));
    std::iota(groups.begin(), groups.end(), 0);
  }

  // Build fused kernels in topological order of their last member.
  // Multi-instruction groups read each distinct external value once (it is
  // staged through the cluster's tiles); a singleton kernel keeps the raw
  // per-occurrence roofline of the reference kernels, which is every
  // kernel when enable_fusion is off.
  std::map<int, FusedKernel> by_group;
  std::map<int, std::set<HloId>> group_external_inputs;
  std::map<int, std::int64_t> group_singleton_input_bytes;
  for (const HloInstruction& inst : module.instructions()) {
    if (site[static_cast<std::size_t>(inst.id)] < 0) continue;  // no kernel
    const int g = groups[static_cast<std::size_t>(inst.id)];
    FusedKernel& kernel = by_group[g];
    kernel.instructions.push_back(inst.id);
    std::vector<Shape> input_shapes;
    for (HloId op : inst.operands) {
      input_shapes.push_back(module.instruction(op).shape);
      // External input: operand produced outside the group.
      if (groups[static_cast<std::size_t>(op)] != g) {
        group_external_inputs[g].insert(op);
        group_singleton_input_bytes[g] +=
            module.instruction(op).shape.NumElements() * 4;
      }
    }
    kernel.flops += OpFlops(inst.kind, input_shapes, inst.shape, inst.attrs);
  }
  for (auto& [g, kernel] : by_group) {
    if (kernel.instructions.size() > 1) {
      for (HloId op : group_external_inputs[g]) {
        kernel.external_bytes +=
            module.instruction(op).shape.NumElements() * 4;
      }
    } else {
      kernel.external_bytes += group_singleton_input_bytes[g];
    }
  }
  // External outputs: results used outside their group (or roots).
  std::vector<bool> is_root(module.instructions().size(), false);
  for (HloId r : module.roots()) is_root[static_cast<std::size_t>(r)] = true;
  std::vector<bool> used_externally(module.instructions().size(), false);
  for (const HloInstruction& inst : module.instructions()) {
    for (HloId op : inst.operands) {
      if (groups[static_cast<std::size_t>(op)] !=
          groups[static_cast<std::size_t>(inst.id)]) {
        used_externally[static_cast<std::size_t>(op)] = true;
      }
    }
  }
  // Only values that materialize can be group outputs: epilogue-folded
  // members never do.
  for (const HloInstruction& inst : module.instructions()) {
    if (site[static_cast<std::size_t>(inst.id)] != inst.id) continue;
    if (used_externally[static_cast<std::size_t>(inst.id)] ||
        is_root[static_cast<std::size_t>(inst.id)]) {
      by_group[groups[static_cast<std::size_t>(inst.id)]].external_bytes +=
          inst.shape.NumElements() * 4;
    }
  }

  std::vector<FusedKernel> kernels;
  kernels.reserve(by_group.size());
  for (auto& [id, kernel] : by_group) kernels.push_back(std::move(kernel));

  // Liveness / arena planning. With reuse off the arena degenerates to the
  // sum of all intermediates (nothing is released); with fusion off there
  // is no arena model at all.
  BufferPlan buffer_plan;
  if (options.enable_fusion) {
    PassTimer timer("xla.pass.buffer_reuse", pass_histograms.buffer_reuse);
    buffer_plan = PlanBuffers(module, chains);
  }
  const bool release = options.enable_fusion && options.enable_buffer_reuse;
  const std::int64_t arena_charge_bytes = release
                                              ? buffer_plan.peak_arena_bytes
                                              : buffer_plan.unreused_bytes;
  if (options.enable_fusion) ArenaPeakGauge().Set(arena_charge_bytes);

  // Lower the module into its step list: one step per instruction that
  // executes at its own site, in id order. A chain result's step runs the
  // whole chain as one kernel.
  std::vector<const EpilogueChain*> chain_at(site.size(), nullptr);
  for (const EpilogueChain& chain : chains) {
    chain_at[static_cast<std::size_t>(chain.result())] = &chain;
  }
  std::vector<Executable::Step> steps;
  for (const HloInstruction& inst : module.instructions()) {
    const auto id = static_cast<std::size_t>(inst.id);
    if (site[id] != inst.id) continue;
    Executable::Step step;
    step.anchor = step.result = inst.id;
    if (const EpilogueChain* chain = chain_at[id]) {
      step.anchor = chain->anchor;
      const Shape& out_shape = module.instruction(chain->anchor).shape;
      HloId tail = chain->anchor;
      for (HloId link_id : chain->ops) {
        const HloInstruction& link = module.instruction(link_id);
        kernels::EpilogueOp op;
        op.kind = link.kind;
        op.attrs = link.attrs;
        HloId operand = -1;
        if (link.operands.size() == 2) {
          op.commuted = link.operands[1] == tail;
          operand = op.commuted ? link.operands[0] : link.operands[1];
          op.map = *ClassifyEpilogueOperand(
              module.instruction(operand).shape, out_shape);
        }
        step.ops.push_back(std::move(op));
        step.operands.push_back(operand);
        tail = link_id;
      }
    }
    if (release) step.release = std::move(buffer_plan.release_after[id]);
    steps.push_back(std::move(step));
  }

  CompileResult result;
  result.compile_seconds =
      kCompileSecondsFixed +
      kCompileSecondsPerInstruction * static_cast<double>(original_size);
  result.executable = std::make_shared<Executable>(
      std::move(module), std::move(kernels), std::move(steps),
      buffer_plan.peak_arena_bytes, buffer_plan.unreused_bytes,
      arena_charge_bytes);
  return result;
}

std::shared_ptr<Executable> CompileCache::GetOrCompile(
    const HloModule& module, double* compile_seconds) {
  const std::uint64_t key = module.Fingerprint();
  // Holding the lock across the compile serializes concurrent misses on
  // the same key, preserving the "each unique trace is only compiled once"
  // invariant even when multiple threads race to materialize.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    for (const Entry& entry : it->second) {
      if (!entry.module.SameProgramAs(module)) continue;
      hits_.fetch_add(1, std::memory_order_relaxed);
      CacheHitCounter().Increment();
      if (compile_seconds != nullptr) *compile_seconds = 0.0;
      return entry.executable;
    }
  }
  // A fingerprint match that is a different program (say, another constant
  // payload) is a miss, compiled and kept beside the first under its key.
  misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMissCounter().Increment();
  CompileResult result = Compile(module, options_);
  total_compile_seconds_ += result.compile_seconds;
  if (compile_seconds != nullptr) *compile_seconds = result.compile_seconds;
  cache_[key].push_back({module, result.executable});
  return result.executable;
}

std::size_t CompileCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t executables = 0;
  for (const auto& [key, entries] : cache_) executables += entries.size();
  return executables;
}

void CompileCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  total_compile_seconds_ = 0.0;
}

}  // namespace s4tf::xla
