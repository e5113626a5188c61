#include "tensor/kernels_blocked.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/thread_pool.h"

#if defined(__AVX2__) && defined(__FMA__)
#define RANNC_KERNELS_AVX2 1
#include <immintrin.h>
#endif

namespace rannc {
namespace detail {

namespace {

/// Read-only float operand: element (b, r, c) sits at p[b*bs + r*rs + c*cs].
struct Strided {
  const float* p;
  std::int64_t bs, rs, cs;
};

// ---- forward GEMM: C = X x Y in float ---------------------------------------
//
// Each parallel unit owns a kFwdUnitRows x kFwdUnitCols block of C (2-D, so
// a skinny product still spreads over the pool). Per kFK terms it packs its
// Y columns into zero-padded kFC-column strips, read through strides: rows
// are copied when Y's columns are contiguous, and a Y stored transposed goes
// through 8x8 in-register transposes. A kFR x kFC register tile then runs
// over each strip for every kFR rows of X, broadcasting X's elements
// straight from its (contiguous) rows. Every C element is one float
// multiply-add chain over ascending k from 0: the tile starts from zero on
// the first term block and from C after it, and a C element is only ever a
// float in between, so neither the term blocking, the tile edges nor the
// thread count moves a bit. A row-edge tile runs the same chains on fewer
// rows; a column-edge tile computes zero-padded columns and stores only its
// valid corner.

constexpr std::int64_t kFR = 6;             // register tile rows
constexpr std::int64_t kFC = 16;            // register tile columns
constexpr std::int64_t kFK = 256;           // terms per packed block
constexpr std::int64_t kFwdUnitRows = 96;   // C rows per parallel unit
constexpr std::int64_t kFwdUnitCols = 32;   // C columns per parallel unit

#ifdef RANNC_KERNELS_AVX2

/// Transposes the 8x8 block held in r[0..7] (row i in r[i]) in registers.
inline void transpose8(__m256 (&r)[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

#endif  // RANNC_KERNELS_AVX2

/// Packs kc terms of a unit's w columns as ceil(w/kFC) strips, strip s at
/// P + s*kc*kFC: P[s*kc*kFC + t*kFC + l] = y[t*rs + (s*kFC + l)*cs]; the
/// lanes past w are zero.
void pack_strips(const float* y, std::int64_t rs, std::int64_t cs,
                 std::int64_t kc, std::int64_t w, float* __restrict P) {
  const std::int64_t strips = (w + kFC - 1) / kFC;
  if (cs == 1) {  // columns contiguous: each term's row is one run
    for (std::int64_t t = 0; t < kc; ++t)
      for (std::int64_t s = 0; s < strips; ++s) {
        const std::int64_t n = std::min(kFC, w - s * kFC);
        float* d = P + (s * kc + t) * kFC;
        std::memcpy(d, y + t * rs + s * kFC,
                    static_cast<std::size_t>(n) * sizeof(float));
        std::fill(d + n, d + kFC, 0.0f);
      }
    return;
  }
  for (std::int64_t s = 0; s < strips; ++s) {
    const float* ys = y + s * kFC * cs;
    float* Ps = P + s * kc * kFC;
    const std::int64_t n = std::min(kFC, w - s * kFC);
    std::int64_t t0 = 0;
#ifdef RANNC_KERNELS_AVX2
    if (rs == 1 && n == kFC) {  // stored transposed: 8x8 transposes
      for (; t0 + 8 <= kc; t0 += 8)
        for (std::int64_t l = 0; l < kFC; l += 8) {
          __m256 r[8];
          for (int i = 0; i < 8; ++i)
            r[i] = _mm256_loadu_ps(ys + (l + i) * cs + t0);
          transpose8(r);
          for (int i = 0; i < 8; ++i)
            _mm256_store_ps(Ps + (t0 + i) * kFC + l, r[i]);
        }
    }
#endif
    for (std::int64_t t = t0; t < kc; ++t) {
      float* d = Ps + t * kFC;
      std::int64_t l = 0;
      for (; l < n; ++l) d[l] = ys[t * rs + l * cs];
      for (; l < kFC; ++l) d[l] = 0.0f;
    }
  }
}

// micro_f32<R>: the R x kFC tile at c (row stride ldc) from kc terms of the
// X rows x[0..R) and strip P; starts from zero when `first`, else from c.
// The loops over R are fully unrolled, so GCC keeps the 2R accumulators in
// ymm registers as it does micro_tile's named values (for R = kFR: twelve
// accumulators, two strip vectors and one broadcast, no stack traffic in
// the term loop).

#ifdef RANNC_KERNELS_AVX2

template <int R>
void micro_f32(const float* const* x, const float* __restrict P,
               std::int64_t kc, float* c, std::int64_t ldc, bool first) {
  static_assert(R <= kFR && kFC == 16);
  __m256 acc[R][2];
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < 2; ++v)
      acc[r][v] =
          first ? _mm256_setzero_ps() : _mm256_loadu_ps(c + r * ldc + 8 * v);
  for (std::int64_t t = 0; t < kc; ++t) {
    const __m256 y0 = _mm256_load_ps(P + t * kFC);
    const __m256 y1 = _mm256_load_ps(P + t * kFC + 8);
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
      const __m256 a = _mm256_broadcast_ss(x[r] + t);
      acc[r][0] = _mm256_fmadd_ps(a, y0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(a, y1, acc[r][1]);
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < 2; ++v)
      _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
}

#else  // !RANNC_KERNELS_AVX2

template <int R>
void micro_f32(const float* const* x, const float* __restrict P,
               std::int64_t kc, float* c, std::int64_t ldc, bool first) {
  float t[R][kFC];
  for (int r = 0; r < R; ++r)
    for (std::int64_t j = 0; j < kFC; ++j)
      t[r][j] = first ? 0.0f : c[r * ldc + j];
  for (std::int64_t p = 0; p < kc; ++p)
    for (int r = 0; r < R; ++r) {
      const float a = x[r][p];
      for (std::int64_t j = 0; j < kFC; ++j) t[r][j] += a * P[p * kFC + j];
    }
  for (int r = 0; r < R; ++r)
    for (std::int64_t j = 0; j < kFC; ++j) c[r * ldc + j] = t[r][j];
}

#endif  // RANNC_KERNELS_AVX2

/// The mr x nr corner of a tile at c; the zero-padded columns' results are
/// dropped.
void tile_f32(const float* x, std::int64_t xrs, std::int64_t mr,
              const float* P, std::int64_t kc, float* c, std::int64_t ldc,
              std::int64_t nr, bool first) {
  const float* rows[kFR];
  for (std::int64_t r = 0; r < mr; ++r) rows[r] = x + r * xrs;
  float buf[kFR * kFC];
  float* dst = c;
  std::int64_t ld = ldc;
  if (nr < kFC) {
    dst = buf;
    ld = kFC;
    for (std::int64_t r = 0; r < mr && !first; ++r)
      std::copy_n(c + r * ldc, nr, buf + r * kFC);
  }
  switch (mr) {
    case 1: micro_f32<1>(rows, P, kc, dst, ld, first); break;
    case 2: micro_f32<2>(rows, P, kc, dst, ld, first); break;
    case 3: micro_f32<3>(rows, P, kc, dst, ld, first); break;
    case 4: micro_f32<4>(rows, P, kc, dst, ld, first); break;
    case 5: micro_f32<5>(rows, P, kc, dst, ld, first); break;
    default: micro_f32<kFR>(rows, P, kc, dst, ld, first); break;
  }
  if (nr < kFC)
    for (std::int64_t r = 0; r < mr; ++r)
      std::copy_n(buf + r * kFC, nr, c + r * ldc);
}

/// C[b] = X[b] x Y[b] for `batches` products of [M,K] x [K,N]; X's rows
/// must be contiguous (x.cs == 1). C is contiguous [batches, M, N] and need
/// not be initialized.
void gemm_f32(const Strided& x, const Strided& y, float* C,
              std::int64_t batches, std::int64_t M, std::int64_t N,
              std::int64_t K, ThreadPool& pool) {
  if (K == 0) {
    std::fill_n(C, batches * M * N, 0.0f);
    return;
  }
  const std::int64_t row_units = (M + kFwdUnitRows - 1) / kFwdUnitRows;
  const std::int64_t col_units = (N + kFwdUnitCols - 1) / kFwdUnitCols;
  const std::int64_t per_batch = row_units * col_units;
  pool.parallel_for(0, batches * per_batch, [&](std::int64_t u0,
                                                std::int64_t u1) {
    alignas(64) float P[kFK * kFwdUnitCols];
    for (std::int64_t u = u0; u < u1; ++u) {
      const std::int64_t b = u / per_batch;
      const std::int64_t i0 = (u % per_batch) / col_units * kFwdUnitRows;
      const std::int64_t j0 = (u % col_units) * kFwdUnitCols;
      const std::int64_t mt = std::min(kFwdUnitRows, M - i0);
      const std::int64_t nt = std::min(kFwdUnitCols, N - j0);
      const float* xu = x.p + b * x.bs + i0 * x.rs;
      const float* yu = y.p + b * y.bs + j0 * y.cs;
      float* cu = C + (b * M + i0) * N + j0;
      for (std::int64_t k0 = 0; k0 < K; k0 += kFK) {
        const std::int64_t kc = std::min(kFK, K - k0);
        pack_strips(yu + k0 * y.rs, y.rs, y.cs, kc, nt, P);
        for (std::int64_t j = 0; j < nt; j += kFC)
          for (std::int64_t i = 0; i < mt; i += kFR)
            tile_f32(xu + i * x.rs + k0, x.rs, std::min(kFR, mt - i),
                     P + j * kc, kc, cu + i * N + j, N,
                     std::min(kFC, nt - j), k0 == 0);
      }
    }
  });
}

// ---- conv double-accumulator helpers ---------------------------------------
//
// axpy_f2d adds one term to every element of a double row, so a sweep of
// calls keeps each element's sequential order (conv2d, conv2d_grad_x).
// dot_f2d sums one dot product over 8 fixed lanes, summed pairwise with the
// scalar tail appended (conv2d_grad_w): float products are exact in double,
// so it matches a sequential double loop to ~1e-16 relative, and the fixed
// lane structure keeps it independent of thread assignment.

#ifdef RANNC_KERNELS_AVX2

double hsum4(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// dot(a, b) over len floats, double-accumulated.
double dot_f2d(const float* __restrict a, const float* __restrict b,
               std::int64_t len) {
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  std::int64_t j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m256 av = _mm256_loadu_ps(a + j);
    const __m256 bv = _mm256_loadu_ps(b + j);
    lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(av)),
                         _mm256_cvtps_pd(_mm256_castps256_ps128(bv)), lo);
    hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)),
                         _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)), hi);
  }
  double s = hsum4(_mm256_add_pd(lo, hi));
  for (; j < len; ++j) s += static_cast<double>(a[j]) * b[j];
  return s;
}

/// acc[i] += w * x[i] over len elements, double accumulator array.
void axpy_f2d(double* __restrict acc, const float* __restrict x, double w,
              std::int64_t len) {
  const __m256d wv = _mm256_set1_pd(w);
  std::int64_t j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m256 xv = _mm256_loadu_ps(x + j);
    const __m256d x0 = _mm256_cvtps_pd(_mm256_castps256_ps128(xv));
    const __m256d x1 = _mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1));
    _mm256_storeu_pd(acc + j,
                     _mm256_fmadd_pd(wv, x0, _mm256_loadu_pd(acc + j)));
    _mm256_storeu_pd(acc + j + 4,
                     _mm256_fmadd_pd(wv, x1, _mm256_loadu_pd(acc + j + 4)));
  }
  for (; j < len; ++j) acc[j] += w * x[j];
}

#else  // !RANNC_KERNELS_AVX2

double dot_f2d(const float* __restrict a, const float* __restrict b,
               std::int64_t len) {
  double l[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::int64_t j = 0;
  for (; j + 8 <= len; j += 8)
    for (std::int64_t t = 0; t < 8; ++t)
      l[t] += static_cast<double>(a[j + t]) * b[j + t];
  double s = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  for (; j < len; ++j) s += static_cast<double>(a[j]) * b[j];
  return s;
}

void axpy_f2d(double* __restrict acc, const float* __restrict x, double w,
              std::int64_t len) {
  for (std::int64_t j = 0; j < len; ++j) acc[j] += w * x[j];
}

#endif  // RANNC_KERNELS_AVX2

}  // namespace

bool blocked_kernels_simd() {
#ifdef RANNC_KERNELS_AVX2
  return true;
#else
  return false;
#endif
}

// ---- matmul ----------------------------------------------------------------

void blocked_matmul(const float* A, const float* B, float* C, std::int64_t ba,
                    std::int64_t m, std::int64_t k, std::int64_t n,
                    bool shared_b, bool trans_b, ThreadPool& pool) {
  // Y(p, j) = B[p][j], or B[j][p] when stored transposed. A shared B folds
  // the batches into rows.
  const Strided y = trans_b ? Strided{B, k * n, 1, k} : Strided{B, k * n, n, 1};
  gemm_f32({A, m * k, k, 1}, y, C, shared_b ? 1 : ba, shared_b ? ba * m : m,
           n, k, pool);
}

namespace {

// ---- backward GEMMs: DA = G x B^T and DB = A^T x G --------------------------
//
// Both gradients run through one packed-panel GEMM, C = X x Y, whose
// operands are read through strides, so the transposed operand is never
// materialized. Each parallel unit owns a kUnitRows x kUnitCols block of C
// (2-D, so a skinny product still spreads over the pool). It packs kKT terms
// of its X rows and Y columns into zero-padded double panels, converting each
// float once, and runs a kTR x kTC register tile over them. Every C element
// is one sequential double sum over ascending p, rounded to float once: the
// naive references' order. Float products are exact in double, so
// fma(x, y, acc) equals acc + x*y, and the result is bit-identical to the
// reference whatever the tiling or thread count. No product is formed in
// float, so subnormal inputs take no microcode assists.

constexpr std::int64_t kTR = 4;          // register tile rows
constexpr std::int64_t kTC = 12;         // register tile columns
constexpr std::int64_t kKT = 128;        // p terms packed at a time
constexpr std::int64_t kUnitRows = 32;   // C rows per parallel unit
constexpr std::int64_t kUnitCols = 96;   // C columns per parallel unit

/// A unit's pack panels and its running sums between term blocks (152 KiB).
struct alignas(64) GemmScratch {
  double x[kUnitRows * kKT];
  double y[kKT * kUnitCols];
  double acc[kUnitRows * kUnitCols];
};

/// dst[t*W + l] = src[t*st + l*sl] for w <= W lanes and kc terms; lanes
/// w..W are zero.
template <std::int64_t W>
void pack_panel(const float* src, std::int64_t sl, std::int64_t st,
                std::int64_t w, std::int64_t kc, double* __restrict dst) {
  std::int64_t t0 = 0;
#ifdef RANNC_KERNELS_AVX2
  static_assert(W % 4 == 0);
  if (w == W && sl == 1) {  // lanes contiguous: convert 4 at a time
    for (std::int64_t t = 0; t < kc; ++t)
      for (std::int64_t l = 0; l < W; l += 4)
        _mm256_store_pd(dst + t * W + l,
                        _mm256_cvtps_pd(_mm_loadu_ps(src + t * st + l)));
    return;
  }
  if (w == W && st == 1) {  // terms contiguous: 4x4 transposes
    for (; t0 + 4 <= kc; t0 += 4)
      for (std::int64_t l = 0; l < W; l += 4) {
        const float* s = src + l * sl + t0;
        __m128 r0 = _mm_loadu_ps(s), r1 = _mm_loadu_ps(s + sl);
        __m128 r2 = _mm_loadu_ps(s + 2 * sl), r3 = _mm_loadu_ps(s + 3 * sl);
        _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
        double* d = dst + t0 * W + l;
        _mm256_store_pd(d, _mm256_cvtps_pd(r0));
        _mm256_store_pd(d + W, _mm256_cvtps_pd(r1));
        _mm256_store_pd(d + 2 * W, _mm256_cvtps_pd(r2));
        _mm256_store_pd(d + 3 * W, _mm256_cvtps_pd(r3));
      }
  }
#endif
  for (std::int64_t t = t0; t < kc; ++t) {
    const float* s = src + t * st;
    double* d = dst + t * W;
    std::int64_t l = 0;
    for (; l < w; ++l) d[l] = s[l * sl];
    for (; l < W; ++l) d[l] = 0.0;
  }
}

// micro_tile: one kTR x kTC tile of C over kc packed terms. It starts from
// zero on the first term block and from `acc` otherwise; it ends in `acc`, or
// on the last term block rounded into the mr x nr valid corner of C.

#ifdef RANNC_KERNELS_AVX2

void micro_tile(const double* __restrict xp, const double* __restrict yp,
                std::int64_t kc, bool first, bool last, double* __restrict acc,
                float* __restrict c, std::int64_t ldc, std::int64_t mr,
                std::int64_t nr) {
  static_assert(kTR == 4 && kTC == 12);
  // Twelve accumulators (row, vector) as named values: GCC keeps them in
  // registers, where an array of them is stored back every iteration.
  const auto ld = [&](std::int64_t r, std::int64_t v) {
    return first ? _mm256_setzero_pd()
                 : _mm256_load_pd(acc + r * kUnitCols + 4 * v);
  };
  __m256d c00 = ld(0, 0), c01 = ld(0, 1), c02 = ld(0, 2);
  __m256d c10 = ld(1, 0), c11 = ld(1, 1), c12 = ld(1, 2);
  __m256d c20 = ld(2, 0), c21 = ld(2, 1), c22 = ld(2, 2);
  __m256d c30 = ld(3, 0), c31 = ld(3, 1), c32 = ld(3, 2);
  for (std::int64_t p = 0; p < kc; ++p) {
    const double* yr = yp + p * kTC;
    const double* xr = xp + p * kTR;
    const __m256d y0 = _mm256_load_pd(yr);
    const __m256d y1 = _mm256_load_pd(yr + 4);
    const __m256d y2 = _mm256_load_pd(yr + 8);
    __m256d x = _mm256_broadcast_sd(xr);
    c00 = _mm256_fmadd_pd(x, y0, c00);
    c01 = _mm256_fmadd_pd(x, y1, c01);
    c02 = _mm256_fmadd_pd(x, y2, c02);
    x = _mm256_broadcast_sd(xr + 1);
    c10 = _mm256_fmadd_pd(x, y0, c10);
    c11 = _mm256_fmadd_pd(x, y1, c11);
    c12 = _mm256_fmadd_pd(x, y2, c12);
    x = _mm256_broadcast_sd(xr + 2);
    c20 = _mm256_fmadd_pd(x, y0, c20);
    c21 = _mm256_fmadd_pd(x, y1, c21);
    c22 = _mm256_fmadd_pd(x, y2, c22);
    x = _mm256_broadcast_sd(xr + 3);
    c30 = _mm256_fmadd_pd(x, y0, c30);
    c31 = _mm256_fmadd_pd(x, y1, c31);
    c32 = _mm256_fmadd_pd(x, y2, c32);
  }
  const __m256d t[kTR][3] = {
      {c00, c01, c02}, {c10, c11, c12}, {c20, c21, c22}, {c30, c31, c32}};
  if (last && mr == kTR && nr == kTC) {
    for (std::int64_t r = 0; r < kTR; ++r)
      for (std::int64_t v = 0; v < 3; ++v)
        _mm_storeu_ps(c + r * ldc + 4 * v, _mm256_cvtpd_ps(t[r][v]));
    return;
  }
  for (std::int64_t r = 0; r < kTR; ++r)
    for (std::int64_t v = 0; v < 3; ++v)
      _mm256_store_pd(acc + r * kUnitCols + 4 * v, t[r][v]);
  if (last)  // a ragged edge tile
    for (std::int64_t r = 0; r < mr; ++r)
      for (std::int64_t j = 0; j < nr; ++j)
        c[r * ldc + j] = static_cast<float>(acc[r * kUnitCols + j]);
}

#else  // !RANNC_KERNELS_AVX2

void micro_tile(const double* __restrict xp, const double* __restrict yp,
                std::int64_t kc, bool first, bool last, double* __restrict acc,
                float* __restrict c, std::int64_t ldc, std::int64_t mr,
                std::int64_t nr) {
  double t[kTR][kTC];
  for (std::int64_t r = 0; r < kTR; ++r)
    for (std::int64_t j = 0; j < kTC; ++j)
      t[r][j] = first ? 0.0 : acc[r * kUnitCols + j];
  for (std::int64_t p = 0; p < kc; ++p)
    for (std::int64_t r = 0; r < kTR; ++r) {
      const double x = xp[p * kTR + r];
      for (std::int64_t j = 0; j < kTC; ++j) t[r][j] += x * yp[p * kTC + j];
    }
  if (!last) {
    for (std::int64_t r = 0; r < kTR; ++r)
      for (std::int64_t j = 0; j < kTC; ++j) acc[r * kUnitCols + j] = t[r][j];
    return;
  }
  for (std::int64_t r = 0; r < mr; ++r)
    for (std::int64_t j = 0; j < nr; ++j)
      c[r * ldc + j] = static_cast<float>(t[r][j]);
}

#endif  // RANNC_KERNELS_AVX2

/// One unit: the mt x nt block of C at c (row stride ldc) from X rows at
/// x.p and Y columns at y.p, summed over all P terms.
void gemm_unit(const Strided& x, const Strided& y, float* c, std::int64_t ldc,
               std::int64_t mt, std::int64_t nt, std::int64_t P,
               GemmScratch& s) {
  for (std::int64_t p0 = 0; p0 < P; p0 += kKT) {
    const std::int64_t kc = std::min(kKT, P - p0);
    for (std::int64_t j = 0; j < nt; j += kTC)
      pack_panel<kTC>(y.p + p0 * y.rs + j * y.cs, y.cs, y.rs,
                      std::min(kTC, nt - j), kc, s.y + j * kc);
    for (std::int64_t i = 0; i < mt; i += kTR)
      pack_panel<kTR>(x.p + i * x.rs + p0 * x.cs, x.rs, x.cs,
                      std::min(kTR, mt - i), kc, s.x + i * kc);
    for (std::int64_t j = 0; j < nt; j += kTC)
      for (std::int64_t i = 0; i < mt; i += kTR)
        micro_tile(s.x + i * kc, s.y + j * kc, kc, p0 == 0, p0 + kc == P,
                   s.acc + i * kUnitCols + j, c + i * ldc + j, ldc,
                   std::min(kTR, mt - i), std::min(kTC, nt - j));
  }
}

/// C[b] = X[b] x Y[b] for `batches` products of [M,P] x [P,N]; C is
/// contiguous [batches, M, N] and need not be initialized.
void gemm_f2d(const Strided& x, const Strided& y, float* C,
              std::int64_t batches, std::int64_t M, std::int64_t N,
              std::int64_t P, ThreadPool& pool) {
  if (P == 0) {
    std::fill_n(C, batches * M * N, 0.0f);
    return;
  }
  const std::int64_t row_units = (M + kUnitRows - 1) / kUnitRows;
  const std::int64_t col_units = (N + kUnitCols - 1) / kUnitCols;
  const std::int64_t per_batch = row_units * col_units;
  pool.parallel_for(0, batches * per_batch, [&](std::int64_t u0,
                                                std::int64_t u1) {
    // On the stack: pipeline stage threads live for one step, and a heap
    // buffer per thread cost ~2 MiB of peak RSS in allocator churn.
    GemmScratch scratch;
    for (std::int64_t u = u0; u < u1; ++u) {
      const std::int64_t b = u / per_batch;
      const std::int64_t i0 = (u % per_batch) / col_units * kUnitRows;
      const std::int64_t j0 = (u % col_units) * kUnitCols;
      gemm_unit({x.p + b * x.bs + i0 * x.rs, 0, x.rs, x.cs},
                {y.p + b * y.bs + j0 * y.cs, 0, y.rs, y.cs},
                C + (b * M + i0) * N + j0, N, std::min(kUnitRows, M - i0),
                std::min(kUnitCols, N - j0), P, scratch);
    }
  });
}

}  // namespace

void blocked_matmul_grad_a(const float* G, const float* B, float* DA,
                           std::int64_t bg, std::int64_t m, std::int64_t n,
                           std::int64_t k, bool shared_b, bool trans_b,
                           ThreadPool& pool) {
  // X = G, Y(p, j) = B[j][p], or B[p][j] when stored transposed. A shared B
  // folds the batches into rows.
  const Strided y = trans_b ? Strided{B, k * n, k, 1} : Strided{B, k * n, 1, n};
  gemm_f2d({G, m * n, n, 1}, y, DA, shared_b ? 1 : bg, shared_b ? bg * m : m,
           k, n, pool);
}

void blocked_matmul_grad_b(const float* A, const float* G, float* DB,
                           std::int64_t ba, std::int64_t m, std::int64_t k,
                           std::int64_t n, bool shared_b, bool trans_b,
                           ThreadPool& pool) {
  // DB = A^T x G: X(i, p) = A[p][i], Y = G. Stored transposed, DB^T = G^T x
  // A sums the same products in the same ascending order. A shared B sums
  // the terms of every batch.
  const Strided a_t{A, m * k, 1, k}, a{A, m * k, k, 1};
  const Strided g_t{G, m * n, 1, n}, g{G, m * n, n, 1};
  gemm_f2d(trans_b ? g_t : a_t, trans_b ? a : g, DB, shared_b ? 1 : ba,
           trans_b ? n : k, trans_b ? k : n, shared_b ? ba * m : m, pool);
}

// ---- conv2d ----------------------------------------------------------------
//
// The conv kernels accumulate whole output rows in double, sweeping the
// reduction dimensions in exactly the naive kernels' per-element order
// (conv2d: c→kh→kw; grad_x: kh→kw→K) with the boundary terms excluded by
// hoisted range computation instead of per-element branches. The inner
// loops are contiguous for stride 1 (the common case) and vectorize as
// float→double fma streams.

void blocked_conv2d(const float* X, const float* Wt, float* Y, std::int64_t N,
                    std::int64_t C, std::int64_t H, std::int64_t W,
                    std::int64_t K, std::int64_t kh, std::int64_t kw,
                    std::int64_t stride, std::int64_t pad, std::int64_t Ho,
                    std::int64_t Wo, ThreadPool& pool) {
  pool.parallel_for(0, N * K, [&](std::int64_t p0, std::int64_t p1) {
    std::vector<double> acc(static_cast<std::size_t>(Wo));
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t ni = p / K, ki = p % K;
      float* plane = Y + (ni * K + ki) * Ho * Wo;
      for (std::int64_t ho = 0; ho < Ho; ++ho) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (std::int64_t c = 0; c < C; ++c) {
          const float* xc = X + (ni * C + c) * H * W;
          const float* wc = Wt + (ki * C + c) * kh * kw;
          for (std::int64_t i = 0; i < kh; ++i) {
            const std::int64_t hi = ho * stride - pad + i;
            if (hi < 0 || hi >= H) continue;
            const float* xrow = xc + hi * W;
            for (std::int64_t j = 0; j < kw; ++j) {
              const std::int64_t off = j - pad;  // wi = wo*stride + off
              const std::int64_t lo =
                  off < 0 ? (-off + stride - 1) / stride : 0;
              const std::int64_t top = W - 1 - off;
              if (top < 0) continue;
              const std::int64_t hi_wo = std::min(Wo, top / stride + 1);
              if (lo >= hi_wo) continue;
              const double w = wc[i * kw + j];
              if (stride == 1) {
                axpy_f2d(acc.data() + lo, xrow + lo + off, w, hi_wo - lo);
              } else {
                for (std::int64_t wo = lo; wo < hi_wo; ++wo)
                  acc[static_cast<std::size_t>(wo)] +=
                      w * xrow[wo * stride + off];
              }
            }
          }
        }
        float* out = plane + ho * Wo;
        for (std::int64_t wo = 0; wo < Wo; ++wo)
          out[wo] = static_cast<float>(acc[static_cast<std::size_t>(wo)]);
      }
    }
  });
}

void blocked_conv2d_grad_x(const float* G, const float* Wt, float* DX,
                           std::int64_t N, std::int64_t C, std::int64_t H,
                           std::int64_t W, std::int64_t K, std::int64_t kh,
                           std::int64_t kw, std::int64_t stride,
                           std::int64_t pad, std::int64_t Ho, std::int64_t Wo,
                           ThreadPool& pool) {
  pool.parallel_for(0, N * C, [&](std::int64_t p0, std::int64_t p1) {
    std::vector<double> acc(static_cast<std::size_t>(W));
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t ni = p / C, ci = p % C;
      float* plane = DX + (ni * C + ci) * H * W;
      for (std::int64_t h = 0; h < H; ++h) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (std::int64_t i = 0; i < kh; ++i) {
          const std::int64_t num = h + pad - i;
          if (num < 0 || num % stride != 0) continue;
          const std::int64_t ho = num / stride;
          if (ho >= Ho) continue;
          for (std::int64_t j = 0; j < kw; ++j) {
            for (std::int64_t ki = 0; ki < K; ++ki) {
              const double w = Wt[((ki * C + ci) * kh + i) * kw + j];
              const float* grow = G + ((ni * K + ki) * Ho + ho) * Wo;
              if (stride == 1) {
                // wv = wo + j - pad for wo in [0, Wo) clipped to [0, W).
                const std::int64_t off = j - pad;
                const std::int64_t lo = std::max<std::int64_t>(0, off);
                const std::int64_t hi = std::min(W, Wo + off);
                if (lo < hi) axpy_f2d(acc.data() + lo, grow + lo - off, w, hi - lo);
              } else {
                for (std::int64_t wo = 0; wo < Wo; ++wo) {
                  const std::int64_t wv = wo * stride - pad + j;
                  if (wv < 0 || wv >= W) continue;
                  acc[static_cast<std::size_t>(wv)] += w * grow[wo];
                }
              }
            }
          }
        }
        float* out = plane + h * W;
        for (std::int64_t wv = 0; wv < W; ++wv)
          out[wv] = static_cast<float>(acc[static_cast<std::size_t>(wv)]);
      }
    }
  });
}

void blocked_conv2d_grad_w(const float* G, const float* X, float* DW,
                           std::int64_t N, std::int64_t C, std::int64_t H,
                           std::int64_t W, std::int64_t K, std::int64_t kh,
                           std::int64_t kw, std::int64_t stride,
                           std::int64_t pad, std::int64_t Ho, std::int64_t Wo,
                           ThreadPool& pool) {
  pool.parallel_for(0, K * C, [&](std::int64_t p0, std::int64_t p1) {
    std::vector<double> acc(static_cast<std::size_t>(kh * kw));
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t ki = p / C, ci = p % C;
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::int64_t ni = 0; ni < N; ++ni) {
        const float* gp = G + (ni * K + ki) * Ho * Wo;
        const float* xp = X + (ni * C + ci) * H * W;
        for (std::int64_t ho = 0; ho < Ho; ++ho) {
          const float* grow = gp + ho * Wo;
          for (std::int64_t i = 0; i < kh; ++i) {
            const std::int64_t hi = ho * stride - pad + i;
            if (hi < 0 || hi >= H) continue;
            const float* xrow = xp + hi * W;
            for (std::int64_t j = 0; j < kw; ++j) {
              const std::int64_t off = j - pad;  // wi = wo*stride + off
              const std::int64_t lo =
                  off < 0 ? (-off + stride - 1) / stride : 0;
              const std::int64_t top = W - 1 - off;
              if (top < 0) continue;
              const std::int64_t hi_wo = std::min(Wo, top / stride + 1);
              if (lo >= hi_wo) continue;
              double s = 0;
              if (stride == 1) {
                s = dot_f2d(grow + lo, xrow + lo + off, hi_wo - lo);
              } else {
                for (std::int64_t wo = lo; wo < hi_wo; ++wo)
                  s += static_cast<double>(grow[wo]) * xrow[wo * stride + off];
              }
              acc[static_cast<std::size_t>(i * kw + j)] += s;
            }
          }
        }
      }
      float* wplane = DW + (ki * C + ci) * kh * kw;
      for (std::int64_t q = 0; q < kh * kw; ++q)
        wplane[q] = static_cast<float>(acc[static_cast<std::size_t>(q)]);
    }
  });
}

void blocked_transpose_last2(const float* X, float* Y, std::int64_t outer,
                             std::int64_t r, std::int64_t c, ThreadPool& pool) {
  // 64x64 tiles: one tile touches 16KiB of each side, so the strided side
  // stays resident in L1 while the other streams. Each output element is
  // written by exactly one (matrix, row-tile) unit and the kernel moves data
  // without arithmetic, so any unit-to-thread assignment is bit-identical.
  // The tile is transposed through a contiguous staging buffer: writing
  // straight to Y walks it with a stride of r floats, which for the
  // power-of-two matrices that dominate (e.g. 1024x1024 weights) lands every
  // store in the same L1 set and thrashes it. The buffer has no such stride,
  // and the flush to Y is row-contiguous.
  constexpr std::int64_t kT = 64;
  const std::int64_t rtiles = (r + kT - 1) / kT;
  pool.parallel_for(0, outer * rtiles, [&](std::int64_t u0, std::int64_t u1) {
    alignas(64) float buf[kT * kT];
    for (std::int64_t u = u0; u < u1; ++u) {
      const std::int64_t mat = u / rtiles;
      const std::int64_t i0 = (u % rtiles) * kT;
      const std::int64_t ni = (i0 + kT < r ? i0 + kT : r) - i0;
      const float* x = X + mat * r * c;
      float* y = Y + mat * r * c;
      for (std::int64_t j0 = 0; j0 < c; j0 += kT) {
        const std::int64_t nj = (j0 + kT < c ? j0 + kT : c) - j0;
        for (std::int64_t i = 0; i < ni; ++i) {
          const float* __restrict xr = x + (i0 + i) * c + j0;
          for (std::int64_t j = 0; j < nj; ++j) buf[j * kT + i] = xr[j];
        }
        for (std::int64_t j = 0; j < nj; ++j) {
          float* __restrict yr = y + (j0 + j) * r + i0;
          const float* __restrict br = buf + j * kT;
          for (std::int64_t i = 0; i < ni; ++i) yr[i] = br[i];
        }
      }
    }
  });
}

}  // namespace detail
}  // namespace rannc
