/**
 * @file
 * Named ring variants of the RingCNN framework (paper Tables I / II).
 *
 * Registry contents:
 *   n=1: R              real field (the baseline "ring")
 *   n=2: RI2, RH2, C    component-wise, XOR-convolution, complex field
 *   n=4: RI4, RH4, RO4  component-wise, Hadamard- and O-diagonalizable
 *        RH4-I          cyclic convolution (CirCNN-alike)
 *        RH4-II         cyclic twisted by tau = (1, 1,-1,-1)
 *        RO4-I          cyclic twisted by tau = (1, 1,-1, 1)
 *        RO4-II         cyclic twisted by tau = (1, 1, 1,-1)
 *        H              Hamilton quaternions
 *   n=8: RI8, RH8       component-wise and XOR-convolution 8-tuples
 *
 * Every ring carries both the exact bilinear form (IndexingTensor) and
 * the transform-based fast algorithm; the two are equivalence-tested.
 */
#ifndef RINGCNN_CORE_RING_H
#define RINGCNN_CORE_RING_H

#include <string>
#include <vector>

#include "core/fast_algorithm.h"
#include "core/indexing_tensor.h"

namespace ringcnn {

/**
 * Widest tuple (n, and the fast algorithm's m) the fused fp32/int8
 * kernels hold in fixed-size per-pixel register arrays. Every
 * registered ring fits (m <= 10); RingConvEngine rejects wider ones.
 */
constexpr int kMaxTuple = 16;

/** One ring algebra: bilinear multiplication + fast algorithm + metadata. */
struct Ring
{
    std::string name;
    int n = 1;                ///< tuple dimension
    IndexingTensor mult{1};   ///< exact bilinear multiplication
    FastAlgorithm fast;       ///< transform-based fast algorithm
    bool commutative = true;
    int grank = 1;            ///< theoretical minimum real multiplications
    std::vector<double> unity;
    std::string family;       ///< human-readable description

    /** Degrees of freedom per weight matrix G (always n for rings). */
    int dof() const { return n; }

    /** z = g . x via the exact bilinear form. */
    std::vector<double> multiply(const std::vector<double>& g,
                                 const std::vector<double>& x) const
    {
        return mult.multiply(g, x);
    }

    /** z = g . x via the fast algorithm. */
    std::vector<double> multiply_fast(const std::vector<double>& g,
                                      const std::vector<double>& x) const
    {
        return fast.multiply(g, x);
    }

    /** Isomorphic n x n real matrix of g (paper eq. (4)). */
    Matd isomorphic(const std::vector<double>& g) const
    {
        return mult.isomorphic(g);
    }
};

/** Looks up a ring by name; aborts with a message on unknown names. */
const Ring& get_ring(const std::string& name);

/** True if the registry contains the name. */
bool has_ring(const std::string& name);

/** All registered ring names, smallest n first. */
const std::vector<std::string>& all_ring_names();

/** The rings compared in the paper's Fig. 9 (everything except R/RI8/RH8). */
std::vector<std::string> paper_comparison_rings();

}  // namespace ringcnn

#endif  // RINGCNN_CORE_RING_H
