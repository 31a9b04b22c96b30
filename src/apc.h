#ifndef APC_APC_H_
#define APC_APC_H_

/// \file
/// Umbrella header for the apcache library — the public API of the
/// SIGMOD 2001 "Adaptive Precision Setting for Cached Approximate Values"
/// reproduction. Include this to get everything; individual headers are
/// fine too and compile faster.
///
/// Layering (each layer only depends on the ones above it):
///   util      — Status/Result, Rng, math helpers, flags
///   core      — Interval, precision policies, analytic model, and the
///               engine-agnostic protocol core: ProtocolCell (per-value
///               state machine), ProtocolTable (entry store + eviction +
///               charging + versioned read slots), CostTracker
///   data      — update streams, synthetic traces, trace I/O
///   query     — precision constraints, bounded aggregates
///   cache     — Source/Cache/CacheSystem: the sequential driver over the
///               protocol core
///   baseline  — WJH97 exact caching, HSW94 divergence caching
///   hierarchy — two-level caching extension
///   sim       — simulation drivers and canned experiments
///   stats     — summaries, series, histograms
///   subscribe — standing precision-bounded queries: SubscriptionTable,
///               NotificationHub, SubscriptionManager over the core's
///               change-detection hook
///   runtime   — sharded concurrent serving engine, the tiered
///               edge/regional engine, and the load drivers

#include "util/flags.h"
#include "util/mathutil.h"
#include "util/rng.h"
#include "util/status.h"

#include "core/adaptive_policy.h"
#include "core/analytic_model.h"
#include "core/cost_model.h"
#include "core/interval.h"
#include "core/precision_policy.h"
#include "core/protocol_cell.h"
#include "core/protocol_table.h"
#include "core/stale_policy.h"
#include "core/variants/history_policy.h"
#include "core/variants/time_varying.h"
#include "core/variants/uncentered_policy.h"

#include "data/random_walk.h"
#include "data/trace_io.h"
#include "data/traffic_trace.h"
#include "data/update_stream.h"

#include "query/aggregate.h"
#include "query/constraint_gen.h"
#include "query/query_gen.h"

#include "cache/cache.h"
#include "cache/source.h"
#include "cache/multi_system.h"
#include "cache/system.h"

#include "baseline/divergence_caching.h"
#include "baseline/exact_caching.h"
#include "baseline/stale_system.h"

#include "hierarchy/hierarchy.h"

#include "sim/experiments.h"
#include "sim/simulation.h"

#include "stats/histogram.h"
#include "stats/stats.h"

#include "subscribe/notification_hub.h"
#include "subscribe/subscription_manager.h"
#include "subscribe/subscription_table.h"

#include "runtime/shard.h"
#include "runtime/sharded_engine.h"
#include "runtime/tiered_engine.h"
#include "runtime/update_bus.h"
#include "runtime/workload_driver.h"

#endif  // APC_APC_H_
