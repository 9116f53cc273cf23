/**
 * @file
 * Synthetic memory-access pattern primitives.
 *
 * The paper drives its evaluation with SPEC CPU2006 and graph
 * analytics binaries under ZSim. We have neither the binaries nor a
 * binary-instrumentation substrate here, so workloads are modeled as
 * streams of (address, read/write, dependence) tuples produced by
 * composable generators. Each generator captures one locality regime
 * the paper's analysis leans on:
 *
 *  - StreamPattern       sequential sweeps (bwaves/lbm/libquantum),
 *                        full-page spatial locality, reuse distance =
 *                        region size;
 *  - ZipfPagePattern     skewed page popularity with tunable lines
 *                        touched per page visit (graph codes: high
 *                        skew; omnetpp/milc: sparse page footprints);
 *  - PointerChasePattern dependent random loads (mcf) that serialize
 *                        the core's memory-level parallelism;
 *  - MixPattern          weighted phase interleaving of the above.
 */

#ifndef BANSHEE_WORKLOAD_PATTERN_HH
#define BANSHEE_WORKLOAD_PATTERN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/alias_table.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace banshee {

/** One memory instruction plus the non-memory work preceding it. */
struct MemOp
{
    Addr addr = 0;
    std::uint8_t nonMemBefore = 0; ///< non-memory instructions before
    bool isWrite = false;
    bool dependsOnPrev = false;    ///< serializes on the previous load
};

/** Interface of every address-stream generator. */
class AccessPattern
{
  public:
    virtual ~AccessPattern() = default;

    /** Produce the next memory operation. */
    virtual MemOp next(Rng &rng) = 0;

    /**
     * Bytes of the finite sequential region this generator sweeps, or
     * 0 when it has no finite sweep (random / pointer patterns, and
     * mixes — whose embedded scans are deliberately excluded: they
     * model data sets streamed through the cache, not resident in
     * it). Used to scale warmup so cache-resident streaming working
     * sets reach steady state before measurement.
     */
    virtual std::uint64_t sweepBytes() const { return 0; }

    /** Mean instructions retired per full sweep (0 when no sweep). */
    virtual std::uint64_t sweepInstr() const { return 0; }
};

/**
 * Sequential sweep over [base, base+bytes) with a fixed stride,
 * wrapping around. Mean @p nonMemMean non-memory instructions between
 * memory ops; @p writeFraction of ops are stores.
 */
class StreamPattern : public AccessPattern
{
  public:
    StreamPattern(Addr base, std::uint64_t bytes, std::uint32_t strideBytes,
                  double writeFraction, std::uint32_t nonMemMean,
                  std::uint64_t startOffset = 0);

    MemOp next(Rng &rng) override;

    std::uint64_t sweepBytes() const override { return bytes_; }

    std::uint64_t
    sweepInstr() const override
    {
        // One memory instruction per op plus the mean non-memory gap.
        return (bytes_ / stride_) * (1 + nonMemMean_);
    }

  private:
    Addr base_;
    std::uint64_t bytes_;
    std::uint32_t stride_;
    double writeFraction_;
    std::uint32_t nonMemMean_;
    std::uint64_t pos_;
};

/**
 * The alias table a ZipfPagePattern over @p numPages pages with skew
 * @p alpha samples page ranks from. Patterns of the same distribution
 * share one immutable table: a mutex-guarded memo hands out the live
 * table for (numPages, alpha) and builds a new one only when none is
 * alive, so a table is freed with the last pattern that holds it.
 */
std::shared_ptr<const AliasTable> zipfTable(std::uint64_t numPages,
                                            double alpha);

/** Distributions the zipfTable memo holds an entry for: the live
 *  tables, plus any freed since the memo last built one. */
std::size_t zipfTableMemoSize();

/**
 * Pages drawn from a Zipf(alpha) popularity distribution over
 * [base, base + numPages * 4KB). Each page visit touches
 * @p linesPerVisit lines starting at a random line (contiguously), so
 * the *page-level* spatial locality is linesPerVisit/64 — the knob
 * that separates graph codes from omnetpp/milc in the paper's
 * analysis. Page ranks are permuted by a multiplicative hash so hot
 * pages spread uniformly over cache sets.
 */
class ZipfPagePattern : public AccessPattern
{
  public:
    ZipfPagePattern(Addr base, std::uint64_t numPages, double alpha,
                    std::uint32_t linesPerVisit, double writeFraction,
                    std::uint32_t nonMemMean);

    MemOp next(Rng &rng) override;

  private:
    Addr base_;
    std::uint64_t numPages_;
    std::uint32_t linesPerVisit_;
    double writeFraction_;
    std::uint32_t nonMemMean_;

    std::shared_ptr<const AliasTable> table_; ///< shared per distribution
    std::uint64_t hotPages_;   ///< alias table covers ranks [0, hotPages)
    std::uint64_t curPage_ = 0;
    std::uint32_t curLine_ = 0;
    std::uint32_t left_ = 0;
};

/**
 * Dependent random loads over [base, base+bytes): every access waits
 * for the previous one (a pointer dereference chain), modeling mcf's
 * low memory-level parallelism.
 */
class PointerChasePattern : public AccessPattern
{
  public:
    PointerChasePattern(Addr base, std::uint64_t bytes,
                        double writeFraction, std::uint32_t nonMemMean);

    MemOp next(Rng &rng) override;

  private:
    Addr base_;
    std::uint64_t lines_;
    double writeFraction_;
    std::uint32_t nonMemMean_;
};

/**
 * Weighted interleave of child patterns in bursts (default 32 ops per
 * burst) so phase behavior looks like real program regions rather
 * than per-access coin flips.
 */
class MixPattern : public AccessPattern
{
  public:
    struct Part
    {
        std::unique_ptr<AccessPattern> pattern;
        double weight;
    };

    explicit MixPattern(std::vector<Part> parts,
                        std::uint32_t burstLength = 32);

    MemOp next(Rng &rng) override;

  private:
    std::vector<Part> parts_;
    AliasTable choose_;
    std::uint32_t burstLength_;
    std::uint32_t left_ = 0;
    std::size_t current_ = 0;
};

/** Uniform non-memory gap helper shared by the generators. */
inline std::uint8_t
sampleGap(Rng &rng, std::uint32_t mean)
{
    if (mean == 0)
        return 0;
    const std::uint64_t v = rng.nextBelow(2 * mean + 1);
    return static_cast<std::uint8_t>(v > 255 ? 255 : v);
}

} // namespace banshee

#endif // BANSHEE_WORKLOAD_PATTERN_HH
