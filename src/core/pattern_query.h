// Pattern monitoring queries (Section 5.2).
//
// Two search algorithms, matching the two index-construction algorithms:
//
//  - QueryOnline (Algorithm 3): for online-built (T = 1, boxed) indexes.
//    The query is partitioned by the binary representation of |Q|/W into
//    sub-queries of increasing resolution, anchored at the query's most
//    recent end. A range query at the first sub-query's level seeds the
//    candidate set; hierarchical radius refinement (Kahveci & Singh)
//    shrinks the remaining budget with d_min of each further sub-query to
//    the candidate's boxes, following the per-stream MBR threads.
//
//  - QueryBatch (Algorithm 4): for batch-built (c = 1, T = W) indexes.
//    All W·p prefix/disjoint-piece features of the query are gathered into
//    one query MBR, enlarged by the multi-piece radius, and one range
//    query retrieves candidate features; alignments are reconstructed and
//    piece-filtered before exact verification.
//
// Distances are Euclidean between unit-hypersphere-normalized windows
// (Equation 2). Because that normalization divides by √w·R_max, distances
// of sub-windows of different lengths do not add directly; both algorithms
// therefore track the refinement budget in *unnormalized* squared distance
// (d²_unnorm = d²_norm · w · R_max²), which restores additivity and keeps
// every pruning step sound. The paper's r/√p enlargement is the special
// case of this arithmetic for unnormalized windows.
#ifndef STARDUST_CORE_PATTERN_QUERY_H_
#define STARDUST_CORE_PATTERN_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/stardust.h"

namespace stardust {

/// A verified match: the stream window ending at `end_time` is within the
/// query radius of the query sequence.
struct PatternMatch {
  StreamId stream = 0;
  std::uint64_t end_time = 0;
  /// Normalized Euclidean distance to the query.
  double distance = 0.0;
};

/// Result of one pattern query.
struct PatternResult {
  /// Distinct candidate positions that were exact-checked.
  std::uint64_t candidates = 0;
  /// Candidate positions whose raw window had already left the history
  /// buffer and could not be verified (skipped, not counted as candidates).
  std::uint64_t unverifiable = 0;
  std::vector<PatternMatch> matches;

  /// True matches / candidates checked; 1.0 when nothing was retrieved.
  double Precision() const {
    return candidates == 0
               ? 1.0
               : static_cast<double>(matches.size()) /
                     static_cast<double>(candidates);
  }
};

/// An online pattern query preprocessed for repeated execution: the
/// per-query work of Algorithm 3 that does not depend on stream state —
/// the decomposition of |Q|/W into pieces with their DWT features,
/// offsets, and unnormalized budget scales, plus the normalized query for
/// exact verification. Compiled once per registered query by the plan
/// compiler (query/eval_plan); shards run it per batch via
/// QueryCompiledIncremental.
struct CompiledPatternQuery {
  struct Piece {
    std::size_t level = 0;
    Point feature;
    std::size_t offset = 0;  // distance from query end to piece end
    double scale = 0.0;      // unnormalized-budget scale of the length
  };
  std::vector<double> query;       // raw query values
  std::vector<double> query_norm;  // normalized per the config
  double radius = 0.0;
  double total_budget = 0.0;  // r² in unnormalized squared distance
  std::vector<Piece> pieces;  // most recent piece first
};

/// Validates and preprocesses an online pattern query against `config`:
/// requires a uniform T == 1 DWT configuration, radius >= 0, and |query|
/// a positive multiple of W with |Q|/W < 2^num_levels. The level index
/// is not required here: QueryCompiledIncremental walks the box threads;
/// QueryCompiled, QueryOnline and TopKOnline, which read the index, check
/// index_features themselves.
Result<CompiledPatternQuery> CompilePatternQuery(
    const StardustConfig& config, const std::vector<double>& query,
    double radius);

/// Pattern search over a Stardust instance (configured with the DWT
/// transform and unit-sphere normalization; the index-probing queries
/// also need index_features).
class PatternQueryEngine {
 public:
  explicit PatternQueryEngine(const Stardust& core) : core_(core) {}

  /// Algorithm 3. Requires an online configuration (update_period == 1).
  /// |query| must be a positive multiple of W with |Q|/W < 2^num_levels.
  /// Equivalent to CompilePatternQuery + QueryCompiled.
  Result<PatternResult> QueryOnline(const std::vector<double>& query,
                                    double radius) const;

  /// Algorithm 3 on a precompiled query. `compiled` must have been built
  /// by CompilePatternQuery against this core's configuration.
  Result<PatternResult> QueryCompiled(
      const CompiledPatternQuery& compiled) const;

  /// Incremental Algorithm 3 for standing (continuous) queries: evaluates
  /// only match-end positions not yet finally decided, instead of
  /// range-searching the whole level index every batch. `eval_floor`
  /// points at one cursor per stream — the first end position not yet
  /// evaluated — which the call advances past every position it decides.
  /// Each piece's boxes are read through a LevelThread::Cursor stepped
  /// one feature time per position, and a surviving position is verified
  /// at once from the raw ring with VerifyPositions' arithmetic; matches
  /// come out ordered by (stream, end time) without a sort.
  ///
  /// Soundness of evaluate-once: stream windows and DWT features are
  /// immutable once appended, box extents only grow (so the d_min budget
  /// chain is a sound lower bound at any evaluation time), and the final
  /// check is exact — so a position's match result is final the first
  /// time every piece feature for it exists. Evaluating each position
  /// exactly once therefore yields, batch over batch, the same cumulative
  /// match stream as re-running QueryCompiled and keeping only matches at
  /// new positions; the golden-replay and correlator equivalence suites
  /// pin this down against the full-search path.
  Result<PatternResult> QueryCompiledIncremental(
      const CompiledPatternQuery& compiled, std::uint64_t* eval_floor) const;

  /// Algorithm 4. Requires a batch configuration (update_period == W,
  /// box_capacity == 1) and |query| >= 2W - 1.
  Result<PatternResult> QueryBatch(const std::vector<double>& query,
                                   double radius) const;

  /// The (up to) k closest stream windows to the query, sorted by
  /// ascending distance — an extension built on the online index: a
  /// best-first k-NN probe of the first sub-query's level (Roussopoulos
  /// et al.) seeds a sound lower bound on the k-th match distance, which
  /// an expanding-radius sequence of Algorithm-3 range queries then
  /// confirms. Same configuration requirements as QueryOnline.
  Result<std::vector<PatternMatch>> TopKOnline(
      const std::vector<double>& query, std::size_t k) const;

 private:
  /// Candidate during hierarchical refinement: a run of possible match end
  /// positions of one stream plus the remaining unnormalized budget.
  struct Candidate {
    StreamId stream = 0;
    std::uint64_t end_lo = 0;
    std::uint64_t end_hi = 0;
    double budget = 0.0;  // remaining unnormalized squared distance
  };

  /// Exact-checks distinct (stream, end) positions against the already
  /// normalized query; fills `result`.
  void VerifyPositions(const std::vector<double>& query_norm, double radius,
                       std::vector<std::pair<StreamId, std::uint64_t>>*
                           positions,
                       PatternResult* result) const;

  const Stardust& core_;
};

}  // namespace stardust

#endif  // STARDUST_CORE_PATTERN_QUERY_H_
