/* Bulk byte operations on a bigstring window, for lib/packet/packet.ml.

   Contract: the OCaml caller has already validated every range, so these
   stubs do no checking, never raise and never allocate (they are bound
   [@@noalloc] with [@untagged] offsets and lengths). Each native stub has
   a bytecode twin taking tagged ints. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define BIG(v, off) ((char *)Caml_ba_data_val(v) + (off))

value oclick_big_zero(value big, intnat off, intnat len)
{
  memset(BIG(big, off), 0, len);
  return Val_unit;
}

value oclick_big_zero_byte(value big, value off, value len)
{
  return oclick_big_zero(big, Long_val(off), Long_val(len));
}

/* [src] is a string or bytes: both are a byte pointer to OCaml. */
value oclick_blit_to_big(value src, intnat srcoff, value dst, intnat dstoff,
                         intnat len)
{
  memcpy(BIG(dst, dstoff), (const char *)String_val(src) + srcoff, len);
  return Val_unit;
}

value oclick_blit_to_big_byte(value src, value srcoff, value dst,
                              value dstoff, value len)
{
  return oclick_blit_to_big(src, Long_val(srcoff), dst, Long_val(dstoff),
                            Long_val(len));
}

value oclick_blit_big_to_bytes(value src, intnat srcoff, value dst,
                               intnat dstoff, intnat len)
{
  memcpy(Bytes_val(dst) + dstoff, BIG(src, srcoff), len);
  return Val_unit;
}

value oclick_blit_big_to_bytes_byte(value src, value srcoff, value dst,
                                    value dstoff, value len)
{
  return oclick_blit_big_to_bytes(src, Long_val(srcoff), dst,
                                  Long_val(dstoff), Long_val(len));
}

/* memmove: source and destination may be the same slab and overlap
   (an in-slot shift, or a blit within one packet). */
value oclick_blit_big_to_big(value src, intnat srcoff, value dst,
                             intnat dstoff, intnat len)
{
  memmove(BIG(dst, dstoff), BIG(src, srcoff), len);
  return Val_unit;
}

value oclick_blit_big_to_big_byte(value src, value srcoff, value dst,
                                  value dstoff, value len)
{
  return oclick_blit_big_to_big(src, Long_val(srcoff), dst, Long_val(dstoff),
                                Long_val(len));
}
