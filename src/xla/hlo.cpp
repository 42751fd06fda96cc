#include "xla/hlo.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "support/hashing.h"

namespace s4tf::xla {

HloId HloModule::AddParameter(const Shape& shape, int index) {
  HloInstruction inst;
  inst.id = static_cast<HloId>(instructions_.size());
  inst.kind = OpKind::kParameter;
  inst.shape = shape;
  inst.parameter_index = index;
  inst.attrs.shape = shape.dims();
  instructions_.push_back(std::move(inst));
  num_parameters_ = std::max(num_parameters_, index + 1);
  return instructions_.back().id;
}

HloId HloModule::AddConstant(Literal value) {
  HloInstruction inst;
  inst.id = static_cast<HloId>(instructions_.size());
  inst.kind = OpKind::kConstant;
  inst.shape = value.shape;
  inst.attrs.shape = value.shape.dims();
  inst.literal = std::move(value);
  instructions_.push_back(std::move(inst));
  return instructions_.back().id;
}

HloId HloModule::AddInstruction(OpKind kind, std::vector<HloId> operands,
                                OpAttrs attrs) {
  std::vector<Shape> input_shapes;
  input_shapes.reserve(operands.size());
  for (HloId op : operands) {
    S4TF_CHECK_GE(op, 0);
    S4TF_CHECK_LT(op, static_cast<HloId>(instructions_.size()))
        << "operand must precede instruction (topological construction)";
    input_shapes.push_back(instructions_[static_cast<std::size_t>(op)].shape);
  }
  HloInstruction inst;
  inst.id = static_cast<HloId>(instructions_.size());
  inst.kind = kind;
  inst.attrs = std::move(attrs);
  inst.shape = InferShape(kind, input_shapes, inst.attrs);
  inst.operands = std::move(operands);
  instructions_.push_back(std::move(inst));
  return instructions_.back().id;
}

void HloModule::AddRoot(HloId id) {
  S4TF_CHECK_GE(id, 0);
  S4TF_CHECK_LT(id, static_cast<HloId>(instructions_.size()));
  roots_.push_back(id);
}

std::uint64_t HloModule::Fingerprint() const {
  std::uint64_t h = kFnvOffset;
  for (const HloInstruction& inst : instructions_) {
    h = HashCombine(h, static_cast<std::uint64_t>(inst.kind));
    h = inst.attrs.Hash(h);
    h = HashShape(inst.shape, h);
    h = HashCombine(h, static_cast<std::uint64_t>(inst.parameter_index));
    for (HloId op : inst.operands) {
      h = HashCombine(h, static_cast<std::uint64_t>(op));
    }
  }
  for (HloId r : roots_) h = HashCombine(h, static_cast<std::uint64_t>(r));
  return h;
}

namespace {

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// OpAttrs equality with the scalar compared by its bits, as Fingerprint()
// hashes it: -0 and +0 differ, and a NaN scalar matches itself.
bool SameAttrs(const OpAttrs& a, const OpAttrs& b) {
  if (!SameBits(a.scalar, b.scalar)) return false;
  if (!std::isnan(a.scalar)) return a == b;
  OpAttrs a_zero = a, b_zero = b;
  a_zero.scalar = b_zero.scalar = 0.0f;
  return a_zero == b_zero;
}

bool SameLiteral(const Literal& a, const Literal& b) {
  if (a.shape != b.shape) return false;
  return a.size() == 0 ||
         std::memcmp(a.data.data(), b.data.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

}  // namespace

bool SameInstructionIgnoringOperands(const HloInstruction& a,
                                     const HloInstruction& b) {
  if (a.kind != b.kind || !SameAttrs(a.attrs, b.attrs) ||
      a.shape != b.shape || a.parameter_index != b.parameter_index) {
    return false;
  }
  return a.kind != OpKind::kConstant || SameLiteral(a.literal, b.literal);
}

bool HloModule::SameProgramAs(const HloModule& other) const {
  if (instructions_.size() != other.instructions_.size() ||
      roots_ != other.roots_ || num_parameters_ != other.num_parameters_) {
    return false;
  }
  for (std::size_t i = 0; i < instructions_.size(); ++i) {
    const HloInstruction& a = instructions_[i];
    const HloInstruction& b = other.instructions_[i];
    if (a.operands != b.operands || !SameInstructionIgnoringOperands(a, b)) {
      return false;
    }
  }
  return true;
}

std::vector<int> HloModule::UseCounts() const {
  std::vector<int> uses(instructions_.size(), 0);
  for (const HloInstruction& inst : instructions_) {
    for (HloId op : inst.operands) {
      ++uses[static_cast<std::size_t>(op)];
    }
  }
  for (HloId r : roots_) ++uses[static_cast<std::size_t>(r)];
  return uses;
}

std::string HloModule::ToString() const {
  std::ostringstream out;
  out << "HloModule " << name_ << " {\n";
  for (const HloInstruction& inst : instructions_) {
    out << "  %" << inst.id << " = " << OpName(inst.kind) << inst.shape;
    if (inst.kind == OpKind::kParameter) {
      out << " param(" << inst.parameter_index << ")";
    }
    if (!inst.operands.empty()) {
      out << " (";
      for (std::size_t i = 0; i < inst.operands.size(); ++i) {
        if (i > 0) out << ", ";
        out << "%" << inst.operands[i];
      }
      out << ")";
    }
    out << "\n";
  }
  out << "  roots:";
  for (HloId r : roots_) out << " %" << r;
  out << "\n}\n";
  return out.str();
}

}  // namespace s4tf::xla
