/**
 * @file
 * Reference image/convolution kernels on CHW tensors.
 *
 * These are the golden, obviously-correct implementations that the nn
 * layers, the fast ring convolutions, and the fixed-point simulator are
 * all tested against.
 */
#ifndef RINGCNN_TENSOR_IMAGE_OPS_H
#define RINGCNN_TENSOR_IMAGE_OPS_H

#include <algorithm>
#include <cstdint>

#include "tensor/tensor.h"

namespace ringcnn {

/**
 * 2-D convolution (actually cross-correlation, the CNN convention).
 *
 * @param x      input feature map, CHW with C == Ci.
 * @param w      weights, [Co][Ci][K][K] with odd K.
 * @param bias   per-output-channel bias of length Co (may be empty).
 * @param pad    symmetric zero padding; pad == K/2 keeps spatial size.
 * @return       output feature map, [Co][H_out][W_out].
 */
Tensor conv2d(const Tensor& x, const Tensor& w,
              const std::vector<float>& bias, int pad);

/** conv2d with "same" padding (pad = K/2). */
Tensor conv2d_same(const Tensor& x, const Tensor& w,
                   const std::vector<float>& bias);

/**
 * Pixel unshuffle (space-to-depth): [C][H*r][W*r] -> [C*r*r][H][W].
 *
 * Component (dy, dx) of the r x r block maps to channel
 * c*r*r + dy*r + dx, matching the PU ordering used by DnERNet-PU.
 */
Tensor pixel_unshuffle(const Tensor& x, int r);

/** Pixel shuffle (depth-to-space): [C*r*r][H][W] -> [C][H*r][W*r]. */
Tensor pixel_shuffle(const Tensor& x, int r);

/** Mean squared error between two equally-shaped tensors. */
double mse(const Tensor& a, const Tensor& b);

/** Largest element-wise |a - b| between two equally-shaped tensors. */
double max_abs_diff(const Tensor& a, const Tensor& b);

/**
 * Peak signal-to-noise ratio in dB for signals with the given peak value
 * (1.0 for normalized images). Returns +inf for identical inputs.
 */
double psnr(const Tensor& a, const Tensor& b, double peak = 1.0);

/** Clamps every element into [lo, hi]. */
Tensor clamp(const Tensor& x, float lo, float hi);

/**
 * Nearest-neighbour upsampling by integer factor r:
 * [C][H][W] -> [C][H*r][W*r].
 */
Tensor upsample_nearest(const Tensor& x, int r);

/**
 * Box-filter downsampling by integer factor r (average of each r x r
 * block): [C][H*r][W*r] -> [C][H][W]. Used as the SR degradation
 * operator in place of bicubic.
 */
Tensor downsample_box(const Tensor& x, int r);

/** Bilinear upsampling by integer factor r (align_corners = false). */
Tensor upsample_bilinear(const Tensor& x, int r);

/** Allocation-free upsample_bilinear into a caller buffer (reset() to
 *  the output shape, capacity reused) — the model executor's compiled
 *  UpsampleBilinearLayer step. The allocating version wraps this. */
void upsample_bilinear_into(const Tensor& x, int r, Tensor& out);

// ---- Per-channel layout kernels over raw CHW buffers ------------------
// One definition of the shuffle and pad/crop index math for every
// element type: the fp32 executor arena (float), the int8 executor
// arena (int32_t), and the allocating functions above. Each call
// writes its own output planes only, so callers may fan calls out per
// (image, channel).

/** Output channel `oc` of pixel_shuffle: x is [C*r*r][h][w], y is
 *  [C][h*r][w*r]. */
template <class T>
void
pixel_shuffle_channel(const T* x, int h, int w, int r, int oc, T* y)
{
    const int64_t plane = static_cast<int64_t>(h) * w;
    T* dst = y + oc * plane * r * r;
    for (int dy = 0; dy < r; ++dy) {
        for (int dx = 0; dx < r; ++dx) {
            const T* src = x + ((oc * r + dy) * r + dx) * plane;
            for (int yy = 0; yy < h; ++yy) {
                T* drow = dst + (static_cast<int64_t>(yy) * r + dy) * w * r +
                          dx;
                const T* srow = src + static_cast<int64_t>(yy) * w;
                for (int xx = 0; xx < w; ++xx) drow[xx * r] = srow[xx];
            }
        }
    }
}

/** The r*r output channels of pixel_unshuffle fed by input channel
 *  `ic`: x is [C][h*r][w*r], y is [C*r*r][h][w] (h, w are the OUTPUT
 *  dims). */
template <class T>
void
pixel_unshuffle_channel(const T* x, int h, int w, int r, int ic, T* y)
{
    const int64_t plane = static_cast<int64_t>(h) * w;
    const T* src = x + ic * plane * r * r;
    for (int dy = 0; dy < r; ++dy) {
        for (int dx = 0; dx < r; ++dx) {
            T* dst = y + ((ic * r + dy) * r + dx) * plane;
            for (int yy = 0; yy < h; ++yy) {
                const T* srow =
                    src + (static_cast<int64_t>(yy) * r + dy) * w * r + dx;
                T* drow = dst + static_cast<int64_t>(yy) * w;
                for (int xx = 0; xx < w; ++xx) drow[xx] = srow[xx * r];
            }
        }
    }
}

/** Output channel `c` of a channel pad or crop over planes of `plane`
 *  elements: a copy of input channel c when c < in_c, zeros past it. */
template <class T>
void
pad_crop_channel(const T* x, int in_c, int64_t plane, int c, T* y)
{
    T* dst = y + c * plane;
    if (c < in_c) {
        std::copy(x + c * plane, x + (c + 1) * plane, dst);
    } else {
        std::fill(dst, dst + plane, T(0));
    }
}

}  // namespace ringcnn

#endif  // RINGCNN_TENSOR_IMAGE_OPS_H
