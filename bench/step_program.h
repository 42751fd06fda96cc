// The training step frameworks::StageTrainStep stages, compiled the two
// ways the table harnesses price it. Compiling is shape-driven, so the
// executables carry the exact per-kernel flop/byte costs of the real
// program at paper-scale batch sizes without executing any numerics.
// frameworks::StagedTrainStep runs the same module, and tests/frameworks
// checks it bit for bit against direct training at small shapes.
#pragma once

#include <memory>

#include "frameworks/staged.h"
#include "xla/compiler.h"

namespace s4tf::bench {

// `module` is the optimizer input, kept so ablations can recompile the
// same program under other pass combinations (epilogue off, reuse off...).
struct StepProgram : frameworks::StagedStep {
  std::shared_ptr<xla::Executable> fused;    // XLA-style compilation
  std::shared_ptr<xla::Executable> unfused;  // eager op-by-op cost shape
  double compile_seconds = 0.0;              // modeled JIT cost (fused)

  std::int64_t parameter_bytes() const {  // gradient bytes per all-reduce
    return parameter_count * 4;
  }
};

template <ad::DifferentiableStruct M>
StepProgram BuildStepProgram(const M& model, const Shape& image_batch_shape,
                             int num_classes, float learning_rate) {
  StepProgram program{frameworks::StageTrainStep(model, image_batch_shape,
                                                 num_classes, learning_rate)};
  const xla::CompileResult fused = xla::Compile(program.module, {});
  program.fused = fused.executable;
  program.compile_seconds = fused.compile_seconds;
  xla::CompileOptions unfused_options;
  unfused_options.enable_fusion = false;
  program.unfused = xla::Compile(program.module, unfused_options).executable;
  return program;
}

}  // namespace s4tf::bench
