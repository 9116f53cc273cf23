#include "workload/pattern.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/log.hh"

namespace banshee {

//
// StreamPattern
//

StreamPattern::StreamPattern(Addr base, std::uint64_t bytes,
                             std::uint32_t strideBytes, double writeFraction,
                             std::uint32_t nonMemMean,
                             std::uint64_t startOffset)
    : base_(base), bytes_(bytes), stride_(strideBytes),
      writeFraction_(writeFraction), nonMemMean_(nonMemMean),
      pos_(startOffset % bytes)
{
    sim_assert(bytes_ >= stride_ && stride_ > 0, "bad stream geometry");
}

MemOp
StreamPattern::next(Rng &rng)
{
    MemOp op;
    op.addr = base_ + pos_;
    pos_ += stride_;
    if (pos_ >= bytes_)
        pos_ = 0;
    op.isWrite = rng.nextBool(writeFraction_);
    op.nonMemBefore = sampleGap(rng, nonMemMean_);
    return op;
}

//
// ZipfPagePattern
//

namespace {

/**
 * Permutation of a page rank into the region that scatters 2 MB
 * blocks but keeps consecutive ranks inside the same block: hot pages
 * cluster spatially, the way degree-sorted graph layouts and hot data
 * structures do. This is what makes large-page (2 MB) frequency
 * tracking meaningful (paper Section 4.3); at 4 KB granularity the
 * block-level clustering only affects which sets hot pages land in,
 * which the per-set candidate machinery absorbs.
 */
std::uint64_t
permute(std::uint64_t rank, std::uint64_t numPages)
{
    constexpr std::uint64_t kBlockPages = kLargePageBytes / kPageBytes;
    if (numPages <= kBlockPages)
        return (rank * 0x9e3779b97f4a7c15ull) % numPages;
    const std::uint64_t numBlocks = numPages / kBlockPages;
    const std::uint64_t block = rank / kBlockPages;
    const std::uint64_t offset = rank % kBlockPages;
    const std::uint64_t permutedBlock =
        (block * 0x9e3779b97f4a7c15ull) % numBlocks;
    return permutedBlock * kBlockPages + offset;
}

/** Upper bound on alias-table outcomes; see buildZipfTable. */
std::uint64_t
zipfHotPages(std::uint64_t numPages)
{
    return std::min<std::uint64_t>(numPages, 1ull << 16);
}

/** Alias table over the hot ranks, plus one bucket for the tail. */
AliasTable
buildZipfTable(std::uint64_t numPages, double alpha)
{
    // Cap the alias table size; the tail beyond it is sampled
    // uniformly with the tail's aggregate probability. This keeps
    // construction O(64K) for multi-GB regions while preserving the
    // head of the distribution, which is what matters for caching.
    const std::uint64_t hotPages = zipfHotPages(numPages);
    std::vector<double> weights = zipfWeights(hotPages, alpha);
    if (hotPages < numPages) {
        // One extra bucket representing all tail pages together.
        double tail = 0.0;
        // Integral approximation of sum_{i=hot}^{n} i^-alpha.
        if (alpha == 1.0) {
            tail = std::log(static_cast<double>(numPages) /
                            static_cast<double>(hotPages));
        } else {
            const double a = 1.0 - alpha;
            tail = (std::pow(static_cast<double>(numPages), a) -
                    std::pow(static_cast<double>(hotPages), a)) /
                   a;
        }
        weights.push_back(std::max(tail, 0.0));
    }
    return AliasTable(weights);
}

/**
 * Weak references: the memo never keeps a table alive by itself.
 * The tables are immutable, so sharing them across concurrently
 * running Systems changes nothing they simulate.
 */
struct ZipfMemo
{
    std::mutex mutex;
    std::map<std::pair<std::uint64_t, double>,
             std::weak_ptr<const AliasTable>>
        tables;
};

ZipfMemo &
zipfMemo()
{
    static ZipfMemo memo;
    return memo;
}

} // namespace

std::shared_ptr<const AliasTable>
zipfTable(std::uint64_t numPages, double alpha)
{
    ZipfMemo &memo = zipfMemo();
    const std::lock_guard<std::mutex> lock(memo.mutex);
    std::weak_ptr<const AliasTable> &slot = memo.tables[{numPages, alpha}];
    std::shared_ptr<const AliasTable> table = slot.lock();
    if (!table) {
        table = std::make_shared<const AliasTable>(
            buildZipfTable(numPages, alpha));
        slot = table;
        // Drop the entries of freed tables, so the memo holds only
        // live distributions however many a process has built.
        for (auto it = memo.tables.begin(); it != memo.tables.end();) {
            if (it->second.expired())
                it = memo.tables.erase(it);
            else
                ++it;
        }
    }
    return table;
}

std::size_t
zipfTableMemoSize()
{
    ZipfMemo &memo = zipfMemo();
    const std::lock_guard<std::mutex> lock(memo.mutex);
    return memo.tables.size();
}

ZipfPagePattern::ZipfPagePattern(Addr base, std::uint64_t numPages,
                                 double alpha, std::uint32_t linesPerVisit,
                                 double writeFraction,
                                 std::uint32_t nonMemMean)
    : base_(base), numPages_(numPages),
      linesPerVisit_(std::min<std::uint32_t>(linesPerVisit, kLinesPerPage)),
      writeFraction_(writeFraction), nonMemMean_(nonMemMean),
      hotPages_(zipfHotPages(numPages))
{
    sim_assert(numPages_ > 0, "empty zipf region");
    sim_assert(linesPerVisit_ > 0, "need at least one line per visit");
    table_ = zipfTable(numPages_, alpha);
}

MemOp
ZipfPagePattern::next(Rng &rng)
{
    if (left_ == 0) {
        std::uint64_t rank = table_->sample(rng);
        if (rank >= hotPages_) {
            // Tail bucket: uniform over the cold pages.
            rank = hotPages_ + rng.nextBelow(numPages_ - hotPages_);
        }
        curPage_ = permute(rank, numPages_);
        left_ = linesPerVisit_;
        // Random aligned starting line keeps visits contiguous.
        const std::uint32_t maxStart = kLinesPerPage - linesPerVisit_;
        curLine_ = maxStart == 0
                       ? 0
                       : static_cast<std::uint32_t>(
                             rng.nextBelow(maxStart + 1));
    }
    MemOp op;
    op.addr = base_ + curPage_ * kPageBytes +
              static_cast<std::uint64_t>(curLine_) * kLineBytes;
    ++curLine_;
    --left_;
    op.isWrite = rng.nextBool(writeFraction_);
    op.nonMemBefore = sampleGap(rng, nonMemMean_);
    return op;
}

//
// PointerChasePattern
//

PointerChasePattern::PointerChasePattern(Addr base, std::uint64_t bytes,
                                         double writeFraction,
                                         std::uint32_t nonMemMean)
    : base_(base), lines_(bytes / kLineBytes),
      writeFraction_(writeFraction), nonMemMean_(nonMemMean)
{
    sim_assert(lines_ > 0, "empty pointer-chase region");
}

MemOp
PointerChasePattern::next(Rng &rng)
{
    MemOp op;
    op.addr = base_ + rng.nextBelow(lines_) * kLineBytes;
    op.isWrite = rng.nextBool(writeFraction_);
    op.dependsOnPrev = !op.isWrite;
    op.nonMemBefore = sampleGap(rng, nonMemMean_);
    return op;
}

//
// MixPattern
//

MixPattern::MixPattern(std::vector<Part> parts, std::uint32_t burstLength)
    : parts_(std::move(parts)), burstLength_(burstLength)
{
    sim_assert(!parts_.empty(), "mix needs at least one part");
    std::vector<double> weights;
    weights.reserve(parts_.size());
    for (const auto &p : parts_)
        weights.push_back(p.weight);
    choose_ = AliasTable(weights);
}

MemOp
MixPattern::next(Rng &rng)
{
    if (left_ == 0) {
        current_ = choose_.sample(rng);
        left_ = burstLength_;
    }
    --left_;
    return parts_[current_].pattern->next(rng);
}

} // namespace banshee
