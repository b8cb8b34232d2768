/**
 * @file
 * The portable builds of simd.h's int8 datapath kernels. The dispatch
 * table runs them when the CPU has no AVX2, and the AVX2 kernels run
 * them on their sub-8-pixel tails. Each has the contract of its
 * simd.h namesake and produces the same bits as the AVX2 build for
 * every input. Library code calls the simd.h entry points; this header
 * exists so tests can compare both builds on any x86-64 host.
 */
#ifndef RINGCNN_CORE_SIMD_GENERIC_H
#define RINGCNN_CORE_SIMD_GENERIC_H

#include <cstdint>

#include "core/simd.h"

namespace ringcnn::simd::generic {

void pack_pairs_i16(int16_t* dst, const int32_t* a, const int32_t* b,
                    int64_t len);

void conv_pairs_i16(int32_t* dst, int64_t dst_stride, const int16_t* src,
                    int64_t src_stride, const PairTap* taps, int ntaps,
                    int32_t bias, int rows, int64_t len);

void requant_i32(int32_t* dst, const int32_t* src, int64_t len, int shift,
                 int bits, bool relu_first);

void dir_relu_otf_i32(int32_t* const* dst, const int32_t* const* src, int n,
                      const int* align, const int* out_shift, int bits,
                      int64_t len);

void dir_relu_qfirst_i32(int32_t* const* dst, const int32_t* const* src,
                         int n, const int* in_shift, const int* mid_shift,
                         const int* out_shift, int bits, int64_t len);

void add_aligned_i32(int32_t* dst, const int32_t* a, const int32_t* b,
                     int64_t len, int sa, int sb, int bits);

}  // namespace ringcnn::simd::generic

#endif  // RINGCNN_CORE_SIMD_GENERIC_H
