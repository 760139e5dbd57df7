/* The ChaCha20 block function of RFC 8439 §2.3, the core of every
   keystream block the scheme draws.

   Contract with chacha20.ml, which declares the stub [@@noalloc] with
   untagged ints:
   - [state] is the 44 bytes key ++ nonce, already validated to that
     length; they are read as the eleven little-endian words of the
     initial state.
   - [counter] is in [0, 2^32) and [dst] has 64 bytes from [off]; the
     OCaml callers check both before calling.
   - The stub is reentrant: all state lives in locals, it touches no
     global, allocates nothing, raises nothing, never enters the
     runtime, and writes only dst[off .. off + 63].

   It is compiled with the toolchain's plain -O2 (no -march=native), so
   the object runs on any CPU of the build's architecture. */

#include <stdint.h>
#include <caml/mlvalues.h>

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16) |
         ((uint32_t)p[3] << 24);
}

static inline void store_le32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)v;
  p[1] = (unsigned char)(v >> 8);
  p[2] = (unsigned char)(v >> 16);
  p[3] = (unsigned char)(v >> 24);
}

#define ROTL32(v, k) (((v) << (k)) | ((v) >> (32 - (k))))

#define QR(a, b, c, d)                                                       \
  do {                                                                       \
    a += b; d ^= a; d = ROTL32(d, 16);                                       \
    c += d; b ^= c; b = ROTL32(b, 12);                                       \
    a += b; d ^= a; d = ROTL32(d, 8);                                        \
    c += d; b ^= c; b = ROTL32(b, 7);                                        \
  } while (0)

/* The sixteen state words are scalar locals, not an array, so the
   compiler can keep them in registers through the rounds. */
CAMLprim value ssdb_chacha20_block(value state, intnat counter, value dst,
                                   intnat off)
{
  const unsigned char *s = Bytes_val(state);
  unsigned char *out = Bytes_val(dst) + off;
  const uint32_t j0 = 0x61707865, j1 = 0x3320646e, j2 = 0x79622d32,
                 j3 = 0x6b206574;
  const uint32_t j4 = load_le32(s), j5 = load_le32(s + 4),
                 j6 = load_le32(s + 8), j7 = load_le32(s + 12),
                 j8 = load_le32(s + 16), j9 = load_le32(s + 20),
                 j10 = load_le32(s + 24), j11 = load_le32(s + 28);
  const uint32_t j12 = (uint32_t)counter, j13 = load_le32(s + 32),
                 j14 = load_le32(s + 36), j15 = load_le32(s + 40);
  uint32_t x0 = j0, x1 = j1, x2 = j2, x3 = j3, x4 = j4, x5 = j5, x6 = j6,
           x7 = j7, x8 = j8, x9 = j9, x10 = j10, x11 = j11, x12 = j12,
           x13 = j13, x14 = j14, x15 = j15;
  int i;

  for (i = 0; i < 10; i++) {
    QR(x0, x4, x8, x12);
    QR(x1, x5, x9, x13);
    QR(x2, x6, x10, x14);
    QR(x3, x7, x11, x15);
    QR(x0, x5, x10, x15);
    QR(x1, x6, x11, x12);
    QR(x2, x7, x8, x13);
    QR(x3, x4, x9, x14);
  }

  store_le32(out, x0 + j0);
  store_le32(out + 4, x1 + j1);
  store_le32(out + 8, x2 + j2);
  store_le32(out + 12, x3 + j3);
  store_le32(out + 16, x4 + j4);
  store_le32(out + 20, x5 + j5);
  store_le32(out + 24, x6 + j6);
  store_le32(out + 28, x7 + j7);
  store_le32(out + 32, x8 + j8);
  store_le32(out + 36, x9 + j9);
  store_le32(out + 40, x10 + j10);
  store_le32(out + 44, x11 + j11);
  store_le32(out + 48, x12 + j12);
  store_le32(out + 52, x13 + j13);
  store_le32(out + 56, x14 + j14);
  store_le32(out + 60, x15 + j15);
  return Val_unit;
}

/* The bytecode entry point: the same core with tagged arguments. */
CAMLprim value ssdb_chacha20_block_byte(value state, value counter, value dst,
                                        value off)
{
  return ssdb_chacha20_block(state, Long_val(counter), dst, Long_val(off));
}
