// An HLO-like graph IR for the domain-specific JIT (paper §3.3).
//
// "Domain-specific optimizing compilers ... can take complete models as
// programs in their own domain-specific IR and generate optimized
// hardware-specific machine code. The ability to observe the complete
// program provides a wide horizon for optimizations such as
// operation-fusion."
//
// HloModule is the destination of LazyTensor traces: a flat, topologically
// ordered instruction list with parameters, embedded constants, and
// explicit roots — close in spirit to XLA HLO. The compiler in compiler.h
// runs CSE/DCE/fusion over it and produces an Executable whose fused
// kernels are charged to the simulated accelerator as single launches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/op.h"

namespace s4tf::xla {

using HloId = std::int32_t;

struct HloInstruction {
  HloId id = -1;
  OpKind kind = OpKind::kConstant;
  OpAttrs attrs;
  std::vector<HloId> operands;
  Shape shape;
  // kConstant payload (values embedded in the program).
  Literal literal;
  // kParameter index.
  int parameter_index = -1;
};

// True when a and b are the same instruction apart from id and operands:
// kind, attributes (the scalar compared by its bits), shape, parameter
// index, and for constants the payload's shape and bytes. The compare
// behind HloModule::SameProgramAs and CSE's merge decision.
bool SameInstructionIgnoringOperands(const HloInstruction& a,
                                     const HloInstruction& b);

class HloModule {
 public:
  explicit HloModule(std::string name = "hlo_module")
      : name_(std::move(name)) {}

  HloId AddParameter(const Shape& shape, int index);
  HloId AddConstant(Literal value);
  // Shape is inferred; operands must already exist (topological order by
  // construction).
  HloId AddInstruction(OpKind kind, std::vector<HloId> operands,
                       OpAttrs attrs = {});
  void AddRoot(HloId id);

  const std::string& name() const { return name_; }
  const std::vector<HloInstruction>& instructions() const {
    return instructions_;
  }
  const HloInstruction& instruction(HloId id) const {
    return instructions_[static_cast<std::size_t>(id)];
  }
  const std::vector<HloId>& roots() const { return roots_; }
  int num_parameters() const { return num_parameters_; }
  std::int64_t instruction_count() const {
    return static_cast<std::int64_t>(instructions_.size());
  }

  // Structural fingerprint: op kinds, attributes, shapes, topology and
  // parameter indices — but NOT constant payloads' values, so a program
  // re-traced with different data hashes identically (the paper's
  // XLA-program cache keys work across training steps).
  std::uint64_t Fingerprint() const;

  // Identity, not a hash: the same instructions (kind, attributes, shape,
  // operands, parameter index, and constant shape and payload bytes) and
  // the same roots. Names are ignored. A Fingerprint() match is only a
  // candidate; this decides whether two modules are one program.
  bool SameProgramAs(const HloModule& other) const;

  // Number of users of each instruction (used by the fusion pass).
  std::vector<int> UseCounts() const;

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<HloInstruction> instructions_;
  std::vector<HloId> roots_;
  int num_parameters_ = 0;
};

}  // namespace s4tf::xla
