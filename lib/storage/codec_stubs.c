/* Block codec: bulk copies between little-endian IEEE doubles in a byte
   buffer and an OCaml float array.  Block_store checks every range before
   calling these, so they never check bounds themselves.

   A float array must be a flat block of doubles (tag Double_array_tag) for
   one memcpy to fill it; on a switch configured without flat float arrays
   the elements are boxed and this file refuses to compile. */

#define CAML_NAME_SPACE
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

#ifndef FLAT_FLOAT_ARRAY
#error "the block codec needs flat float arrays (OCaml configured without --disable-flat-float-array)"
#endif

#if ARCH_FLOAT_ENDIANNESS != 0x01234567 && ARCH_FLOAT_ENDIANNESS != 0x76543210
#error "the block codec supports little- and big-endian doubles only"
#endif

/* Copy [n] doubles from [src] to [dst], turning host order into
   little-endian or back (the same operation both ways). */
static void copy_le(unsigned char *dst, const unsigned char *src, size_t n)
{
#ifdef ARCH_BIG_ENDIAN
  for (size_t i = 0; i < n; i++)
    for (size_t k = 0; k < 8; k++)
      dst[8 * i + k] = src[8 * i + 7 - k];
#else
  memcpy(dst, src, 8 * n);
#endif
}

/* riot_get_floats : bytes -> int -> int -> float array */
CAMLprim value riot_get_floats(value b, value off, value n)
{
  CAMLparam1(b);
  CAMLlocal1(a);
  mlsize_t len = Long_val(n);
  a = caml_alloc_float_array(len);
  /* The allocation may move [b]: take its address only now. */
  if (len > 0)
    copy_le((unsigned char *) a, Bytes_val(b) + Long_val(off), len);
  CAMLreturn(a);
}

/* riot_set_floats : bytes -> int -> float array -> unit  (noalloc) */
CAMLprim value riot_set_floats(value b, value off, value a)
{
  mlsize_t len = Wosize_val(a) / Double_wosize;
  if (len > 0)
    copy_le(Bytes_val(b) + Long_val(off), (const unsigned char *) a, len);
  return Val_unit;
}
