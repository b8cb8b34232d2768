#include "tensor/image_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ringcnn {

Tensor
conv2d(const Tensor& x, const Tensor& w, const std::vector<float>& bias,
       int pad)
{
    assert(x.rank() == 3 && w.rank() == 4);
    const int ci = x.dim(0), h = x.dim(1), wd = x.dim(2);
    const int co = w.dim(0), k = w.dim(2);
    assert(w.dim(1) == ci && w.dim(3) == k);
    assert(bias.empty() || static_cast<int>(bias.size()) == co);

    const int ho = h + 2 * pad - k + 1;
    const int wo = wd + 2 * pad - k + 1;
    assert(ho > 0 && wo > 0);
    Tensor out({co, ho, wo});

    for (int oc = 0; oc < co; ++oc) {
        const float b = bias.empty() ? 0.0f : bias[static_cast<size_t>(oc)];
        for (int oy = 0; oy < ho; ++oy) {
            for (int ox = 0; ox < wo; ++ox) {
                double acc = b;
                for (int ic = 0; ic < ci; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy + ky - pad;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ox + kx - pad;
                            if (ix < 0 || ix >= wd) continue;
                            acc += static_cast<double>(w.at(oc, ic, ky, kx)) *
                                   x.at(ic, iy, ix);
                        }
                    }
                }
                out.at(oc, oy, ox) = static_cast<float>(acc);
            }
        }
    }
    return out;
}

Tensor
conv2d_same(const Tensor& x, const Tensor& w, const std::vector<float>& bias)
{
    return conv2d(x, w, bias, w.dim(2) / 2);
}

Tensor
pixel_unshuffle(const Tensor& x, int r)
{
    assert(x.rank() == 3 && x.dim(1) % r == 0 && x.dim(2) % r == 0);
    const int c = x.dim(0), h = x.dim(1) / r, w = x.dim(2) / r;
    Tensor out({c * r * r, h, w});
    for (int ic = 0; ic < c; ++ic) {
        pixel_unshuffle_channel(x.data(), h, w, r, ic, out.data());
    }
    return out;
}

Tensor
pixel_shuffle(const Tensor& x, int r)
{
    assert(x.rank() == 3 && x.dim(0) % (r * r) == 0);
    const int c = x.dim(0) / (r * r), h = x.dim(1), w = x.dim(2);
    Tensor out({c, h * r, w * r});
    for (int oc = 0; oc < c; ++oc) {
        pixel_shuffle_channel(x.data(), h, w, r, oc, out.data());
    }
    return out;
}

double
mse(const Tensor& a, const Tensor& b)
{
    assert(a.numel() == b.numel());
    double acc = 0.0;
    for (int64_t i = 0; i < a.numel(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        acc += d * d;
    }
    return acc / static_cast<double>(a.numel());
}

double
max_abs_diff(const Tensor& a, const Tensor& b)
{
    assert(a.numel() == b.numel());
    double m = 0.0;
    for (int64_t i = 0; i < a.numel(); ++i) {
        m = std::max<double>(m, std::fabs(static_cast<double>(a[i]) - b[i]));
    }
    return m;
}

double
psnr(const Tensor& a, const Tensor& b, double peak)
{
    const double e = mse(a, b);
    if (e <= 0.0) return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(peak * peak / e);
}

Tensor
clamp(const Tensor& x, float lo, float hi)
{
    Tensor out = x;
    for (int64_t i = 0; i < out.numel(); ++i) {
        out[i] = std::min(hi, std::max(lo, out[i]));
    }
    return out;
}

Tensor
upsample_nearest(const Tensor& x, int r)
{
    assert(x.rank() == 3);
    const int c = x.dim(0), h = x.dim(1), w = x.dim(2);
    Tensor out({c, h * r, w * r});
    for (int ic = 0; ic < c; ++ic) {
        for (int y = 0; y < h * r; ++y) {
            for (int xx = 0; xx < w * r; ++xx) {
                out.at(ic, y, xx) = x.at(ic, y / r, xx / r);
            }
        }
    }
    return out;
}

Tensor
downsample_box(const Tensor& x, int r)
{
    assert(x.rank() == 3 && x.dim(1) % r == 0 && x.dim(2) % r == 0);
    const int c = x.dim(0), h = x.dim(1) / r, w = x.dim(2) / r;
    Tensor out({c, h, w});
    const float inv = 1.0f / static_cast<float>(r * r);
    for (int ic = 0; ic < c; ++ic) {
        for (int y = 0; y < h; ++y) {
            for (int xx = 0; xx < w; ++xx) {
                double acc = 0.0;
                for (int dy = 0; dy < r; ++dy) {
                    for (int dx = 0; dx < r; ++dx) {
                        acc += x.at(ic, y * r + dy, xx * r + dx);
                    }
                }
                out.at(ic, y, xx) = static_cast<float>(acc) * inv;
            }
        }
    }
    return out;
}

Tensor
upsample_bilinear(const Tensor& x, int r)
{
    Tensor out;
    upsample_bilinear_into(x, r, out);
    return out;
}

void
upsample_bilinear_into(const Tensor& x, int r, Tensor& out)
{
    assert(x.rank() == 3);
    const int c = x.dim(0), h = x.dim(1), w = x.dim(2);
    const int ho = h * r, wo = w * r;
    out.reset({c, ho, wo});
    const float scale = 1.0f / static_cast<float>(r);
    for (int ic = 0; ic < c; ++ic) {
        for (int oy = 0; oy < ho; ++oy) {
            // align_corners = false source coordinate
            float sy = (oy + 0.5f) * scale - 0.5f;
            sy = std::max(0.0f, std::min(sy, static_cast<float>(h - 1)));
            const int y0 = static_cast<int>(sy);
            const int y1 = std::min(y0 + 1, h - 1);
            const float fy = sy - static_cast<float>(y0);
            for (int ox = 0; ox < wo; ++ox) {
                float sx = (ox + 0.5f) * scale - 0.5f;
                sx = std::max(0.0f, std::min(sx, static_cast<float>(w - 1)));
                const int x0 = static_cast<int>(sx);
                const int x1 = std::min(x0 + 1, w - 1);
                const float fx = sx - static_cast<float>(x0);
                const float v =
                    (1 - fy) * ((1 - fx) * x.at(ic, y0, x0) +
                                fx * x.at(ic, y0, x1)) +
                    fy * ((1 - fx) * x.at(ic, y1, x0) +
                          fx * x.at(ic, y1, x1));
                out.at(ic, oy, ox) = v;
            }
        }
    }
}

}  // namespace ringcnn
