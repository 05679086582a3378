/* Dense.gemm's packed kernel: rows [lo, hi) of c += op(a) * op(b), over
   the per-domain panels the OCaml side allocates and passes in.  The
   contract (summation order, zero skip, NaN payloads) is in dense.mli; this
   file keeps each element's operation sequence and changes only where the
   operands are read from and how many elements are in flight together.

   Built with -ffp-contract=off, so a multiply and the add that follows it
   are two roundings, never one fused multiply-add.  It allocates nothing,
   never raises and reads no OCaml state besides its arguments; the OCaml
   side checks every shape and sizes the panels before calling it.

   The row loop, with the NaN-free tile inlined, is compiled once per ISA:
   for the target's default ISA, and on x86-64 under GCC or Clang a second
   time for AVX2 (target("avx2"), never FMA).  The AVX2 copy and its cpuid
   query sit behind GEMM_AVX2, defined only for that target and those
   compilers; anywhere else the baseline copy is the only one.  The OCaml
   side asks which copies the CPU runs once per process and passes the
   chosen one's number with every call. */

#define CAML_NAME_SPACE
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#ifndef FLAT_FLOAT_ARRAY
#error "the gemm kernel needs flat float arrays (OCaml configured without --disable-flat-float-array)"
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#define GEMM_AVX2 1
#endif

/* The tile of c held in registers: MR rows by NR columns.  The panels of
   op(a) hold MR rows interleaved by l, those of op(b) NR columns per l. */
#define MR 4
#define NR 8

static long min_long(long x, long y) { return x < y ? x : y; }

/* Pack rows [lo, hi) of op(a), a(i,l) = a[i*ars + l*als], into quads:
   pa[q*MR*k + MR*l + s] = a(lo + MR*q + s, l), and +0 for the rows of the
   last quad past hi, which the zero skip then never adds.  Returns whether
   any packed value is a NaN. */
static int pack_a(const double *a, long ars, long als, long lo, long hi,
                  long k, double *pa)
{
  int nan = 0;
  for (long i0 = lo; i0 < hi; i0 += MR, pa += MR * k) {
    long h = min_long(MR, hi - i0);
    const double *rows = a + i0 * ars;
    for (long l = 0; l < k; l++) {
      for (long s = 0; s < h; s++) {
        double v = rows[s * ars + l * als];
        nan |= v != v;
        pa[MR * l + s] = v;
      }
      for (long s = h; s < MR; s++) pa[MR * l + s] = 0.0;
    }
  }
  return nan;
}

/* Pack columns [j0, j0 + NR) of op(b), b(l,j) = b[l*bls + j*bcs]:
   pb[NR*l + j] = b(l, j0 + j), and +0 for the columns past n, whose sums
   are computed and thrown away.  Returns whether any packed value is a
   NaN. */
static int pack_b(const double *b, long bls, long bcs, long j0, long n,
                  long k, double *pb)
{
  int nan = 0;
  long w = min_long(NR, n - j0);
  for (long l = 0; l < k; l++) {
    const double *bl = b + l * bls + j0 * bcs;
    for (long j = 0; j < w; j++) {
      double v = bl[j * bcs];
      nan |= v != v;
      pb[NR * l + j] = v;
    }
    for (long j = w; j < NR; j++) pb[NR * l + j] = 0.0;
  }
  return nan;
}

#ifdef __GNUC__
#define ALWAYS_INLINE inline __attribute__((always_inline))
#define NOINLINE __attribute__((noinline))
#else
#define ALWAYS_INLINE inline
#define NOINLINE
#endif

/* The tile when no operand holds a NaN.  -O3 keeps the accumulators in
   vector registers and runs the j loop as many columns per instruction as
   the ISA's vectors hold (two doubles for SSE2, four for AVX2); each
   element still gets one multiply and one add per l, l ascending, since a
   vector lane is one IEEE multiply or add like a scalar instruction.
   Which operand of a commutative multiply or add the compiler puts first
   is free here: with no NaN operand, every NaN that arises (0 * inf, inf -
   inf) is the hardware's default NaN, the same bits in either order. */
static ALWAYS_INLINE void tile_plain(long k, const double *pa,
                                     const double *pb, double ct[MR][NR])
{
  double acc[MR][NR];
  memcpy(acc, ct, sizeof acc);
  for (long l = 0; l < k; l++) {
    const double *al = pa + MR * l, *bl = pb + NR * l;
    for (int s = 0; s < MR; s++) {
      double av = al[s];
      if (av != 0.0)
        for (int j = 0; j < NR; j++) acc[s][j] += av * bl[j];
    }
  }
  memcpy(ct, acc, sizeof acc);
}

/* x with its quiet bit set, as an arithmetic result carries a NaN
   operand. */
static double quiet(double x)
{
  uint64_t u;
  memcpy(&u, &x, sizeof u);
  u |= UINT64_C(0x0008000000000000);
  memcpy(&x, &u, sizeof x);
  return x;
}

/* x * y and x + y with the NaN the reference triple loop returns when an
   operand is a NaN, chosen explicitly rather than left to the compiler's
   operand order: the first operand's NaN if it is one, else the second's,
   quieted (what SSE2 does with its first operand as x). */
static double mul_nan(double x, double y)
{
  return x != x ? quiet(x) : y != y ? quiet(y) : x * y;
}

static double add_nan(double x, double y)
{
  return x != x ? quiet(x) : y != y ? quiet(y) : x + y;
}

/* The tile when an operand may hold a NaN: one element at a time, the
   accumulator's NaN winning over the product's and a's over b's.  Never
   inlined, so every ISA's rows share this one scalar copy. */
static NOINLINE void tile_nan(long k, const double *pa, const double *pb,
                              double ct[MR][NR])
{
  for (int s = 0; s < MR; s++)
    for (int j = 0; j < NR; j++) {
      double acc = ct[s][j];
      for (long l = 0; l < k; l++) {
        double av = pa[MR * l + s];
        if (av != 0.0) acc = add_nan(acc, mul_nan(av, pb[NR * l + j]));
      }
      ct[s][j] = acc;
    }
}

/* Rows [lo, hi) of c, lo < hi, n > 0, k > 0.  a(i,l) = a[i*ars + l*als];
   b(l,j) = b[l*bls + j*bcs].  Inlined into one function per ISA, so
   tile_plain is vectorised for each target where it sits in this loop, as
   the vectoriser needs (the tile as a function of its own keeps its
   accumulators in memory). */
static ALWAYS_INLINE void gemm_rows(long ars, long als, long bls, long bcs,
                                   long n, long k, const double *a,
                                   const double *b, double *c, double *pa,
                                   double *pb, long lo, long hi)
{
  int a_nan = pack_a(a, ars, als, lo, hi, k, pa);
  for (long j0 = 0; j0 < n; j0 += NR) {
    int b_nan = pack_b(b, bls, bcs, j0, n, k, pb);
    long w = min_long(NR, n - j0);
    const double *pq = pa;
    for (long i0 = lo; i0 < hi; i0 += MR, pq += MR * k) {
      long h = min_long(MR, hi - i0);
      double ct[MR][NR] = { { 0.0 } };
      int nan = a_nan | b_nan;
      for (long s = 0; s < h; s++)
        for (long j = 0; j < w; j++) {
          double v = c[(i0 + s) * n + j0 + j];
          nan |= v != v;
          ct[s][j] = v;
        }
      if (nan)
        tile_nan(k, pq, pb, ct);
      else
        tile_plain(k, pq, pb, ct);
      for (long s = 0; s < h; s++)
        for (long j = 0; j < w; j++) c[(i0 + s) * n + j0 + j] = ct[s][j];
    }
  }
}

#ifdef GEMM_AVX2
__attribute__((target("avx2")))
static void gemm_rows_avx2(long ars, long als, long bls, long bcs, long n,
                           long k, const double *a, const double *b,
                           double *c, double *pa, double *pb, long lo,
                           long hi)
{
  gemm_rows(ars, als, bls, bcs, n, k, a, b, c, pa, pb, lo, hi);
}
#endif

/* The tiles are numbered as Dense.isa's constructors: 0 baseline, 1 AVX2.

   riot_gemm_tile_supported : isa -> bool  (noalloc)
   Whether this build has the tile and the CPU runs its instructions. */
CAMLprim value riot_gemm_tile_supported(value visa)
{
  switch (Long_val(visa)) {
  case 0:
    return Val_true;
#ifdef GEMM_AVX2
  case 1:
    __builtin_cpu_init();
    return Val_bool(__builtin_cpu_supports("avx2"));
#endif
  default:
    return Val_false;
  }
}

/* riot_gemm_rows : isa ta tb m n k a b c pa pb lo hi -> unit  (noalloc)
   pa holds at least MR * ceil((hi - lo) / MR) * k doubles, pb NR * k;
   isa is a tile riot_gemm_tile_supported accepted. */
CAMLprim value riot_gemm_rows(value visa, value vta, value vtb, value vm,
                              value vn, value vk, value va, value vb,
                              value vc, value vpa, value vpb, value vlo,
                              value vhi)
{
  long m = Long_val(vm), n = Long_val(vn), k = Long_val(vk);
  long lo = Long_val(vlo), hi = Long_val(vhi);
  if (lo >= hi || n <= 0 || k <= 0) return Val_unit;
  const double *a = (const double *) va, *b = (const double *) vb;
  double *c = (double *) vc, *pa = (double *) vpa, *pb = (double *) vpb;
  long ars = Bool_val(vta) ? 1 : k, als = Bool_val(vta) ? m : 1;
  long bls = Bool_val(vtb) ? 1 : n, bcs = Bool_val(vtb) ? k : 1;
#ifdef GEMM_AVX2
  if (Long_val(visa) == 1) {
    gemm_rows_avx2(ars, als, bls, bcs, n, k, a, b, c, pa, pb, lo, hi);
    return Val_unit;
  }
#else
  (void) visa;
#endif
  gemm_rows(ars, als, bls, bcs, n, k, a, b, c, pa, pb, lo, hi);
  return Val_unit;
}

CAMLprim value riot_gemm_rows_byte(value *argv, int argc)
{
  (void) argc;
  return riot_gemm_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8], argv[9], argv[10],
                        argv[11], argv[12]);
}
