// Reference CPU kernels for every op in the vocabulary.
//
// `EvalOpLiteral` is the single source of mathematical truth in the
// platform. The naïve Tensor (§3.1) calls it synchronously; the eager
// executor (§3.2) calls it from its dispatch thread; the XLA-like
// executable (§3.3) calls it per fused cluster; the framework baselines in
// the evaluation call it under their own dispatch disciplines. Correctness
// tests therefore automatically cover all execution strategies, and
// cross-strategy result equality is a meaningful invariant (tested in
// tests/lazy and tests/frameworks).
//
// Each elementwise op has one definition: an OpKind-dispatched table in
// kernels.cpp that hands the op's per-element functor to both of its
// callers, the standalone elementwise kernels and the epilogue that
// MatMul/Conv2D apply to their output tiles. A fused chain therefore runs
// the unfused float expressions by construction (pinned op by op in
// tests/xla/fusion2_test.cpp). Strided iteration — broadcasts, Select,
// BroadcastTo, Reduce, Transpose, Slice, Pad — goes through one run
// walker: it drops size-1 dims, merges adjacent dims that every operand
// walks contiguously, and hands each kernel maximal runs along the
// innermost merged dim, so the kernel's run loop is unit-stride or
// loop-invariant and vectorizes (tested against a divide/modulo reference
// in tests/tensor/strided_kernels_test.cpp). The pooling kernels go
// through one window walk.
//
// The three conv kernels are register-blocked microkernels on 4-wide
// generic vectors. Each keeps every output element's accumulation order
// of the plain loop nest, including its skip of zero inputs: narrow
// channel counts add masked products in blocks of 4 pixels (forward) or 4
// filter taps (filter gradient) x 8 channels; wide ones add only the
// gathered nonzero terms, 32 channels at a time; the input gradient is a
// gather over the output pixels that cover each input pixel. They are
// compared bit for bit with the loop nests in
// tests/tensor/conv_kernels_test.cpp (DESIGN.md decision 6).
//
// Hot kernels shard across the process-wide intra-op thread pool
// (support/threadpool.h). Parallelism is only ever over disjoint output
// slices — never over reduction axes — so every kernel's non-NaN results
// are bit-identical for any thread count, and a NaN result is NaN for any
// thread count (tested in tests/tensor/parallel_kernels_test.cpp). Reduce,
// Transpose, Slice and Pad run serially on the calling thread; Reduce
// keeps each output's ascending accumulation order.
#pragma once

#include <vector>

#include "tensor/literal.h"
#include "tensor/op.h"

namespace s4tf {

// Evaluates one op on concrete inputs. CHECK-fails on malformed calls
// (wrong arity, incompatible shapes). kParameter and kCrossReplicaSum are
// handled by backends, not here.
Literal EvalOpLiteral(OpKind kind, const std::vector<const Literal*>& inputs,
                      const OpAttrs& attrs);

// Convenience overload for value inputs.
Literal EvalOpLiteral(OpKind kind, const std::vector<Literal>& inputs,
                      const OpAttrs& attrs);

namespace kernels {
struct EpilogueOp;
}  // namespace kernels

// Evaluates a kMatMul/kConv2D anchor with an elementwise epilogue folded
// into the kernel: one dispatch, one launch's worth of counters, and bytes
// counted for external traffic only (anchor inputs + epilogue operands +
// the final output — the folded intermediates never touch memory).
Literal EvalFusedOpLiteral(OpKind anchor_kind,
                           const std::vector<const Literal*>& inputs,
                           const OpAttrs& attrs,
                           const std::vector<kernels::EpilogueOp>& epilogue);

namespace kernels {

// The individual kernels, exposed for reuse by the fused spline op in the
// frameworks module and for direct unit testing.

// One elementwise op folded into the epilogue of a MatMul/Conv2D kernel.
// The epilogue runs over each output tile after its reduction completes and
// before the tile spills to memory, evaluating the op through the same
// table entry as the standalone elementwise kernel — per output element the
// fused chain is the same sequence of operations in the same order, so
// fused results are bit-identical to the unfused reference for any thread
// count. Any elementwise op of arity 1 (map kNone) or 2 can be a link.
struct EpilogueOp {
  // How a binary op's other operand maps onto the anchor output.
  enum class Map : std::uint8_t {
    kNone,     // unary / scalar-attr op: no operand tensor
    kScalar,   // single-element operand broadcast everywhere
    kLastDim,  // operand[j] broadcast along the last output dim (bias)
    kFull,     // operand[flat] with the anchor's own shape (residual)
  };
  OpKind kind = OpKind::kRelu;
  OpAttrs attrs;                   // scalar payload for kAddScalar et al.
  Map map = Map::kNone;
  const float* operand = nullptr;  // bound per execution when map != kNone
  std::int64_t operand_elements = 0;  // for byte accounting
  bool commuted = false;  // operand OP value instead of value OP operand
};

// [m,k] x [k,n], with `epilogue` applied to each output tile after its
// reduction (same loop nest and per-element accumulation order with or
// without one).
void MatMul(const float* a, const float* b, float* out, std::int64_t m,
            std::int64_t k, std::int64_t n,
            const std::vector<EpilogueOp>& epilogue = {});

// NHWC input, HWIO filter, with `epilogue` applied per output-channel tile.
void Conv2D(const float* input, const Shape& in_shape, const float* filter,
            const Shape& filter_shape, float* out, const Shape& out_shape,
            std::int64_t stride_h, std::int64_t stride_w, Padding padding,
            const std::vector<EpilogueOp>& epilogue = {});

void Conv2DBackpropInput(const float* grad_out, const Shape& grad_shape,
                         const float* filter, const Shape& filter_shape,
                         float* grad_in, const Shape& in_shape,
                         std::int64_t stride_h, std::int64_t stride_w,
                         Padding padding);

void Conv2DBackpropFilter(const float* input, const Shape& in_shape,
                          const float* grad_out, const Shape& grad_shape,
                          float* grad_filter, const Shape& filter_shape,
                          std::int64_t stride_h, std::int64_t stride_w,
                          Padding padding);

// Computes the SAME/VALID low-side padding for a window dimension.
std::int64_t PadLow(std::int64_t input, std::int64_t output,
                    std::int64_t window, std::int64_t stride, Padding padding);

// True when every element of data[0, n) is finite (no NaN, no Inf).
// Shards across the intra-op pool; per-shard verdicts combine with a
// commutative AND, so the verdict is bit-deterministic for any thread
// count and shard schedule. The fast scan the nn/guard.h training guard
// runs over every loss and gradient bucket.
bool AllFiniteSpan(const float* data, std::int64_t n);

}  // namespace kernels
}  // namespace s4tf
