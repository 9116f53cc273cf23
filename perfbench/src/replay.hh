/**
 * @file
 * Per-call host costs of the layers the in-program timers do not
 * cover, measured from the benchmark's own files.
 *
 * The workload's own stream (same generators, same per-core seeds as
 * the System builds) is regenerated and replayed through fresh
 * instances of each layer: AccessPattern::next, Tlb::lookup, and
 * CacheHierarchy::access/fetch behind a stub MemBackend that
 * completes every LLC miss at once. EventQueue schedule/fire cost is
 * timed on a synthetic set of self-rearming events, one per core.
 * The first half of each replayed stream warms the structures and
 * only the second half is timed.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstddef>

#include "harness.hh"

namespace perfbench {

/** Replay about @p ops memory operations of @p sys's workload and
 *  @p events queue events; @p sys supplies the configuration and the
 *  tenant layout and is not modified. */
ReplayCosts replayLayers(banshee::System &sys, std::size_t ops,
                         std::size_t events);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
