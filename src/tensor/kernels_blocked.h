// Cache-blocked GEMM/conv kernels (internal to src/tensor).
//
// These are the fast counterparts of the naive reference loops in ops.cpp,
// dispatched behind the public op entry points unless RANNC_NAIVE_KERNELS
// selects the reference path. They operate on raw pointers; all shape
// checking and output allocation stays in ops.cpp so both paths share it.
//
// Determinism contract (same as the naive kernels): the parallel unit is a
// fixed function of the problem shape only, every output element is
// produced by exactly one unit, and the floating-point reduction order per
// element never depends on how units are assigned to threads — results are
// bit-identical at any thread-pool size.
//
// Every matmul operand B may be stored transposed (trans_b: [n,k] instead
// of [k,n]); the kernels read it through strides, so no transposed copy is
// ever built.
//
// The forward matmul is a float GEMM in which every C element is one float
// multiply-add chain over ascending k, starting from 0, whatever the tile,
// edge or thread count: fused (FMA) in AVX2+FMA builds, each product rounded
// before its add in the plain-C fallback.
//
// matmul_grad_a and matmul_grad_b run on one packed-panel GEMM in which
// every output element is a single double sum over ascending terms, rounded
// to float once: the naive references' order. Float products are exact in
// double, so an FMA equals the reference's acc + a*b and both gradients are
// bit-identical to their references by construction; with no product formed
// in float, subnormal inputs cost nothing extra. conv2d and conv2d_grad_x
// keep the references' per-element double order too. The forward matmul
// (the naive loop rounds each product before adding it) and conv2d_grad_w
// (fixed double lanes) match their references to rounding only.
//
// This translation unit is compiled -O3 and, where the toolchain allows,
// -mavx2 -mfma (see src/tensor/CMakeLists.txt and the
// RANNC_PORTABLE_KERNELS option); plain-C fallbacks cover other targets.
#pragma once

#include <cstdint>

namespace rannc {

class ThreadPool;

namespace detail {

/// True when this build's blocked kernels use the AVX2+FMA paths.
bool blocked_kernels_simd();

/// C[ba,m,n] = A[ba,m,k] x B, with B [k,n] (or [ba,k,n] unless shared_b)
/// stored as [n,k] (or [ba,n,k]) when trans_b. C need not be initialized.
void blocked_matmul(const float* A, const float* B, float* C, std::int64_t ba,
                    std::int64_t m, std::int64_t k, std::int64_t n,
                    bool shared_b, bool trans_b, ThreadPool& pool);

/// DA[bg,m,k] = G[bg,m,n] x B^T, B stored as in blocked_matmul. DA need not
/// be initialized.
void blocked_matmul_grad_a(const float* G, const float* B, float* DA,
                           std::int64_t bg, std::int64_t m, std::int64_t n,
                           std::int64_t k, bool shared_b, bool trans_b,
                           ThreadPool& pool);

/// DB = A^T x G in B's stored layout: [k,n] (batches reduced) when
/// shared_b, else per-batch [ba,k,n]; [n,k] / [ba,n,k] when trans_b. DB
/// need not be initialized.
void blocked_matmul_grad_b(const float* A, const float* G, float* DB,
                           std::int64_t ba, std::int64_t m, std::int64_t k,
                           std::int64_t n, bool shared_b, bool trans_b,
                           ThreadPool& pool);

/// Y[N,K,Ho,Wo] = conv(X[N,C,H,W], W[K,C,kh,kw]); Y need not be initialized.
void blocked_conv2d(const float* X, const float* Wt, float* Y, std::int64_t N,
                    std::int64_t C, std::int64_t H, std::int64_t W,
                    std::int64_t K, std::int64_t kh, std::int64_t kw,
                    std::int64_t stride, std::int64_t pad, std::int64_t Ho,
                    std::int64_t Wo, ThreadPool& pool);

/// DX[N,C,H,W] from G[N,K,Ho,Wo] and W[K,C,kh,kw]; DX need not be
/// initialized.
void blocked_conv2d_grad_x(const float* G, const float* Wt, float* DX,
                           std::int64_t N, std::int64_t C, std::int64_t H,
                           std::int64_t W, std::int64_t K, std::int64_t kh,
                           std::int64_t kw, std::int64_t stride,
                           std::int64_t pad, std::int64_t Ho, std::int64_t Wo,
                           ThreadPool& pool);

/// Fused Adam update, the kernel behind Optimizer::step. Element-for-element
/// it evaluates exactly the reference expression tree of the scalar loop in
/// optimizer.cpp (same float ops, no fused multiply-add, IEEE sqrt/div), so
/// its results are bit-identical to that loop — and elementwise independent,
/// so bit-identical at any thread count. Inputs may alias outputs.
///   MO[i] = b1*M[i] + (1-b1)*G[i]
///   VO[i] = b2*V[i] + (1-b2)*G[i]*G[i]
///   PO[i] = P[i] - lr*(MO[i]/bc1) / (sqrt(VO[i]/bc2) + eps)
void blocked_adam_step(const float* P, const float* G, const float* M,
                       const float* V, float* PO, float* MO, float* VO,
                       std::int64_t n, float lr, float b1, float b2, float eps,
                       float bc1, float bc2, ThreadPool& pool);

/// Y[o,c,r] = X[o,r,c] for `outer` independent r x c matrices: the
/// trailing-axes swap of every transpose the interpreter does not fold into
/// a matmul operand. Tiled so both sides stream through cache; a pure
/// permutation, so results are always bit-identical to any other evaluation
/// order.
void blocked_transpose_last2(const float* X, float* Y, std::int64_t outer,
                             std::int64_t r, std::int64_t c, ThreadPool& pool);

/// DW[K,C,kh,kw] from G[N,K,Ho,Wo] and X[N,C,H,W]; DW need not be
/// initialized.
void blocked_conv2d_grad_w(const float* G, const float* X, float* DW,
                           std::int64_t N, std::int64_t C, std::int64_t H,
                           std::int64_t W, std::int64_t K, std::int64_t kh,
                           std::int64_t kw, std::int64_t stride,
                           std::int64_t pad, std::int64_t Ho, std::int64_t Wo,
                           ThreadPool& pool);

}  // namespace detail
}  // namespace rannc
