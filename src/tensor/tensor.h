/**
 * @file
 * Dense N-dimensional float tensor used throughout the RingCNN library.
 *
 * Feature maps follow the CHW convention (channels, height, width) and
 * convolution weights follow [Co][Ci][Kh][Kw]. The class is a thin,
 * bounds-checked wrapper around a contiguous std::vector<float>; all
 * heavy kernels live in free functions (see image_ops.h).
 */
#ifndef RINGCNN_TENSOR_TENSOR_H
#define RINGCNN_TENSOR_TENSOR_H

#include <cassert>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

namespace ringcnn {

/** Shape of a tensor: up to 4 dimensions in row-major order. */
using Shape = std::vector<int>;

/** Number of elements described by a shape. */
inline int64_t shape_numel(const Shape& s)
{
    int64_t n = 1;
    for (int d : s) n *= d;
    return n;
}

/**
 * Dense row-major float tensor (rank 1..4).
 *
 * Invariants: data().size() == numel(); all dims positive.
 */
class Tensor
{
  public:
    Tensor() = default;

    /** Creates a zero-initialized tensor with the given shape. */
    explicit Tensor(Shape shape)
        : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f)
    {
        assert(!shape_.empty() && shape_.size() <= 4);
    }

    /** Creates a tensor with the given shape and flat contents. */
    Tensor(Shape shape, std::vector<float> data)
        : shape_(std::move(shape)), data_(std::move(data))
    {
        assert(static_cast<int64_t>(data_.size()) == shape_numel(shape_));
    }

    const Shape& shape() const { return shape_; }
    int rank() const { return static_cast<int>(shape_.size()); }
    int dim(int i) const { return shape_[static_cast<size_t>(i)]; }
    int64_t numel() const { return static_cast<int64_t>(data_.size()); }

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }
    std::vector<float>& vec() { return data_; }
    const std::vector<float>& vec() const { return data_; }
    /** Bytes reserved by the buffer (capacity, not size). */
    int64_t capacity_bytes() const
    {
        return static_cast<int64_t>(data_.capacity() * sizeof(float));
    }

    float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
    float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

    /** 1-D element access. */
    float& at(int i) { return data_[idx1(i)]; }
    float at(int i) const { return data_[idx1(i)]; }
    /** 2-D element access. */
    float& at(int i, int j) { return data_[idx2(i, j)]; }
    float at(int i, int j) const { return data_[idx2(i, j)]; }
    /** 3-D element access (e.g. CHW feature maps). */
    float& at(int i, int j, int k) { return data_[idx3(i, j, k)]; }
    float at(int i, int j, int k) const { return data_[idx3(i, j, k)]; }
    /** 4-D element access (e.g. [Co][Ci][Kh][Kw] weights). */
    float& at(int i, int j, int k, int l) { return data_[idx4(i, j, k, l)]; }
    float at(int i, int j, int k, int l) const { return data_[idx4(i, j, k, l)]; }

    /** Sets every element to v. */
    void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

    /**
     * Re-shapes in place, reusing the existing buffer capacity (the
     * activation-arena hot path: no allocation once capacity is
     * reserved). Newly exposed elements are zero; existing contents are
     * otherwise preserved per std::vector::resize semantics — callers
     * are expected to overwrite every element.
     */
    void reset(Shape shape)
    {
        assert(!shape.empty() && shape.size() <= 4);
        shape_ = std::move(shape);
        data_.resize(static_cast<size_t>(shape_numel(shape_)));
    }

    /** Reinterprets the flat buffer with a new shape of equal numel. */
    Tensor reshaped(Shape new_shape) const
    {
        assert(shape_numel(new_shape) == numel());
        return Tensor(std::move(new_shape), data_);
    }

    /** Element-wise in-place addition. Shapes must match exactly. */
    Tensor& operator+=(const Tensor& o)
    {
        assert(o.numel() == numel());
        for (size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
        return *this;
    }

    /** Element-wise in-place subtraction. Shapes must match exactly. */
    Tensor& operator-=(const Tensor& o)
    {
        assert(o.numel() == numel());
        for (size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
        return *this;
    }

    /** In-place scale by a scalar. */
    Tensor& operator*=(float s)
    {
        for (float& v : data_) v *= s;
        return *this;
    }

    /** Sum of all elements. */
    double sum() const
    {
        double acc = 0.0;
        for (float v : data_) acc += v;
        return acc;
    }

    /** Maximum absolute value (0 for empty tensors). */
    float abs_max() const;

    /** Fills with N(0, stddev) samples from the given engine. */
    void randn(std::mt19937& rng, float stddev = 1.0f);

    /** Fills with U(lo, hi) samples from the given engine. */
    void rand_uniform(std::mt19937& rng, float lo, float hi);

    /** Human-readable shape, e.g. "[3, 16, 16]". */
    std::string shape_str() const;

  private:
    size_t idx1(int i) const
    {
        assert(rank() == 1 && i >= 0 && i < shape_[0]);
        return static_cast<size_t>(i);
    }
    size_t idx2(int i, int j) const
    {
        assert(rank() == 2 && i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1]);
        return static_cast<size_t>(i) * shape_[1] + j;
    }
    size_t idx3(int i, int j, int k) const
    {
        assert(rank() == 3 && i >= 0 && i < shape_[0] && j >= 0 &&
               j < shape_[1] && k >= 0 && k < shape_[2]);
        return (static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k;
    }
    size_t idx4(int i, int j, int k, int l) const
    {
        assert(rank() == 4 && i >= 0 && i < shape_[0] && j >= 0 &&
               j < shape_[1] && k >= 0 && k < shape_[2] && l >= 0 &&
               l < shape_[3]);
        return ((static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k) *
                   shape_[3] + l;
    }

    Shape shape_;
    std::vector<float> data_;
};

/** Element-wise sum of two equally-shaped tensors. */
Tensor operator+(const Tensor& a, const Tensor& b);
/** Element-wise difference of two equally-shaped tensors. */
Tensor operator-(const Tensor& a, const Tensor& b);

}  // namespace ringcnn

#endif  // RINGCNN_TENSOR_TENSOR_H
