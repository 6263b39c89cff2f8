#include "core/pattern_query.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "transform/feature.h"

namespace stardust {

namespace {

/// Unnormalized-budget scale of a sub-window of length w: a normalized
/// squared distance d²_norm over that window contributes
/// d²_norm · scale to the unnormalized squared distance.
double BudgetScale(const StardustConfig& config, std::size_t w) {
  if (config.normalization == Normalization::kUnitSphere) {
    return static_cast<double>(w) * config.r_max * config.r_max;
  }
  return 1.0;
}

double TotalBudget(const StardustConfig& config, std::size_t query_len,
                   double radius) {
  return radius * radius * BudgetScale(config, query_len);
}

}  // namespace

void PatternQueryEngine::VerifyPositions(
    const std::vector<double>& query_norm, double radius,
    std::vector<std::pair<StreamId, std::uint64_t>>* positions,
    PatternResult* result) const {
  std::sort(positions->begin(), positions->end());
  positions->erase(std::unique(positions->begin(), positions->end()),
                   positions->end());
  const StardustConfig& config = core_.config();
  const double r2 = radius * radius;
  std::vector<double> window;
  for (const auto& [stream, end_time] : *positions) {
    const Status st = core_.summarizer(stream).GetWindow(
        end_time, query_norm.size(), &window);
    if (!st.ok()) {
      ++result->unverifiable;
      continue;
    }
    ++result->candidates;
    NormalizeWindowInPlace(&window, config.normalization, config.r_max);
    const double d2 = Dist2(query_norm, window);
    if (d2 <= r2) {
      result->matches.push_back({stream, end_time, std::sqrt(d2)});
    }
  }
}

Result<CompiledPatternQuery> CompilePatternQuery(
    const StardustConfig& config, const std::vector<double>& query,
    double radius) {
  if (config.transform != TransformKind::kDwt) {
    return Status::FailedPrecondition(
        "pattern queries require a DWT configuration");
  }
  if (config.update_period != 1 ||
      config.update_schedule != UpdateSchedule::kUniform) {
    return Status::FailedPrecondition(
        "QueryOnline requires the online algorithm (uniform T == 1)");
  }
  if (radius < 0.0) return Status::InvalidArgument("negative radius");
  const std::size_t W = config.base_window;
  if (query.empty() || query.size() % W != 0) {
    return Status::InvalidArgument(
        "query length must be a positive multiple of the base window");
  }
  const std::size_t b = query.size() / W;
  if (b >> config.num_levels != 0) {
    return Status::InvalidArgument(
        "query longer than the largest indexed resolution");
  }

  CompiledPatternQuery compiled;
  compiled.query = query;
  compiled.query_norm =
      NormalizeWindow(query, config.normalization, config.r_max);
  compiled.radius = radius;
  compiled.total_budget = TotalBudget(config, query.size(), radius);

  // Partition the query by the ones of b, most recent piece first
  // (Algorithm 3 / Figure 2). piece[i] = (level, feature of the piece,
  // offset from the query end to the piece's end).
  std::size_t offset = 0;
  for (std::size_t j = 0; j < config.num_levels; ++j) {
    if (((b >> j) & 1) == 0) continue;
    const std::size_t w = config.LevelWindow(j);
    const std::size_t piece_end = query.size() - offset;
    std::vector<double> piece(query.begin() + (piece_end - w),
                              query.begin() + piece_end);
    const std::vector<double> normalized =
        NormalizeWindow(piece, config.normalization, config.r_max);
    compiled.pieces.push_back(
        {j, DwtFeature(normalized, config.coefficients), offset,
         BudgetScale(config, w)});
    offset += w;
  }
  SD_DCHECK(offset == query.size());
  return compiled;
}

Result<PatternResult> PatternQueryEngine::QueryOnline(
    const std::vector<double>& query, double radius) const {
  if (!core_.config().index_features) {
    return Status::FailedPrecondition(
        "pattern queries require an indexed DWT configuration");
  }
  Result<CompiledPatternQuery> compiled =
      CompilePatternQuery(core_.config(), query, radius);
  if (!compiled.ok()) return compiled.status();
  return QueryCompiled(compiled.value());
}

Result<PatternResult> PatternQueryEngine::QueryCompiled(
    const CompiledPatternQuery& compiled) const {
  const StardustConfig& config = core_.config();
  if (config.transform != TransformKind::kDwt || !config.index_features ||
      config.update_period != 1 ||
      config.update_schedule != UpdateSchedule::kUniform) {
    return Status::FailedPrecondition(
        "QueryCompiled requires the online algorithm (uniform T == 1)");
  }
  if (compiled.pieces.empty() ||
      compiled.pieces.back().level >= config.num_levels) {
    return Status::FailedPrecondition(
        "compiled query does not match this configuration");
  }
  const double total_budget = compiled.total_budget;
  using Piece = CompiledPatternQuery::Piece;
  const std::vector<Piece>& pieces = compiled.pieces;

  // Seed candidates with a range query at the first piece's level.
  const Piece& first = pieces.front();
  const double r1 = std::sqrt(total_budget / first.scale);
  std::vector<RTreeEntry> entries;
  core_.index(first.level).SearchWithin(first.feature, r1, &entries);

  std::vector<Candidate> candidates;
  candidates.reserve(entries.size());
  auto seed_candidate = [&](StreamId stream, const LevelThread& thread,
                            const FeatureBox& box) {
    const double cost =
        thread.Extent(box).MinDist2(first.feature) * first.scale;
    if (cost > total_budget) return;
    Candidate cand;
    cand.stream = stream;
    cand.end_lo = box.first_time;
    cand.end_hi = box.first_time + box.count - 1;
    cand.budget = total_budget - cost;
    candidates.push_back(cand);
  };
  for (const RTreeEntry& entry : entries) {
    const StreamId stream = RecordStream(entry.id);
    const LevelThread& thread = core_.summarizer(stream).thread(first.level);
    const FeatureBox* box = thread.FindBySeq(RecordSeq(entry.id));
    SD_CHECK(box != nullptr);
    seed_candidate(stream, thread, *box);
  }
  // The index only holds sealed boxes; the freshest features live in each
  // stream's still-filling box, which must be probed directly.
  for (StreamId stream = 0; stream < core_.num_streams(); ++stream) {
    const LevelThread& thread = core_.summarizer(stream).thread(first.level);
    const FeatureBox* filling = thread.filling_box();
    if (filling != nullptr) seed_candidate(stream, thread, *filling);
  }

  // Hierarchical radius refinement over the remaining pieces, following
  // the per-stream threads.
  for (std::size_t pi = 1; pi < pieces.size(); ++pi) {
    const Piece& piece = pieces[pi];
    const std::size_t w = config.LevelWindow(piece.level);
    const std::uint64_t anchor = w - 1;  // first feature time at the level
    std::vector<Candidate> next;
    next.reserve(candidates.size());
    for (const Candidate& cand : candidates) {
      // Match ends below piece.offset + anchor have no feature for this
      // piece (their windows would start before the stream): clamp the
      // candidate run to the valid range rather than dropping it.
      const std::uint64_t floor_end = piece.offset + anchor;
      const std::uint64_t lo_end = std::max(cand.end_lo, floor_end);
      if (lo_end > cand.end_hi) continue;
      const std::uint64_t tf_lo = lo_end - piece.offset;
      const std::uint64_t tf_hi = cand.end_hi - piece.offset;
      const LevelThread& thread =
          core_.summarizer(cand.stream).thread(piece.level);
      const std::uint64_t seq_lo = (tf_lo - anchor) / config.box_capacity;
      const std::uint64_t seq_hi = (tf_hi - anchor) / config.box_capacity;
      for (std::uint64_t seq = seq_lo; seq <= seq_hi; ++seq) {
        const FeatureBox* box = thread.FindBySeq(seq);
        if (box == nullptr) continue;  // expired or not yet produced
        const double cost =
            thread.Extent(*box).MinDist2(piece.feature) * piece.scale;
        if (cost > cand.budget) continue;
        // Map the box's feature times back to match-end positions and
        // intersect with the candidate's range.
        const std::uint64_t box_lo = box->first_time + piece.offset;
        const std::uint64_t box_hi =
            box->first_time + box->count - 1 + piece.offset;
        const std::uint64_t new_lo = std::max(box_lo, lo_end);
        const std::uint64_t new_hi = std::min(box_hi, cand.end_hi);
        if (new_lo > new_hi) continue;
        next.push_back(
            {cand.stream, new_lo, new_hi, cand.budget - cost});
      }
    }
    candidates = std::move(next);
  }

  // Expand candidate runs into positions, then verify.
  std::vector<std::pair<StreamId, std::uint64_t>> positions;
  for (const Candidate& cand : candidates) {
    for (std::uint64_t t = cand.end_lo; t <= cand.end_hi; ++t) {
      positions.emplace_back(cand.stream, t);
    }
  }
  PatternResult result;
  VerifyPositions(compiled.query_norm, compiled.radius, &positions, &result);
  return result;
}

Result<PatternResult> PatternQueryEngine::QueryCompiledIncremental(
    const CompiledPatternQuery& compiled, std::uint64_t* eval_floor) const {
  const StardustConfig& config = core_.config();
  if (config.transform != TransformKind::kDwt ||
      config.update_period != 1 ||
      config.update_schedule != UpdateSchedule::kUniform) {
    return Status::FailedPrecondition(
        "QueryCompiledIncremental requires the online algorithm (uniform "
        "T == 1)");
  }
  if (compiled.pieces.empty() ||
      compiled.pieces.back().level >= config.num_levels) {
    return Status::FailedPrecondition(
        "compiled query does not match this configuration");
  }
  using Piece = CompiledPatternQuery::Piece;
  const std::vector<Piece>& pieces = compiled.pieces;
  const std::size_t dims = config.FeatureDims();
  const std::size_t length = compiled.query_norm.size();
  const double r2 = compiled.radius * compiled.radius;

  PatternResult result;
  std::vector<LevelThread::Cursor> cursors(pieces.size());
  std::vector<double> window;
  for (StreamId stream = 0; stream < core_.num_streams(); ++stream) {
    const StreamSummarizer& summarizer = core_.summarizer(stream);
    // t_max: the newest position whose every piece feature has been
    // produced; its match result is final (see header). Positions beyond
    // it are left for the batch that completes them. t_live: the oldest
    // position every piece still has a retained box for; older ones fail
    // exactly where a Find() of their piece feature would return null
    // (pre-anchor or expired), so they are decided without a look.
    std::uint64_t t_max = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t t_live = 0;
    bool have_all = true;
    for (const Piece& piece : pieces) {
      const LevelThread& thread = summarizer.thread(piece.level);
      if (thread.empty()) {
        have_all = false;
        break;
      }
      t_max = std::min(t_max, thread.last_time() + piece.offset);
      t_live = std::max(t_live, thread.front_time() + piece.offset);
    }
    if (!have_all || eval_floor[stream] > t_max) continue;
    const std::uint64_t t_first = std::max(eval_floor[stream], t_live);
    eval_floor[stream] = t_max + 1;
    if (t_first > t_max) continue;
    // One cursor per piece steps that piece's box thread one feature time
    // per position: the same d_min budget chain as the full search, with
    // no Find per position.
    for (std::size_t pi = 0; pi < pieces.size(); ++pi) {
      SD_CHECK(summarizer.thread(pieces[pi].level)
                   .CursorAt(t_first - pieces[pi].offset, &cursors[pi]));
    }
    for (std::uint64_t t = t_first;; ++t) {
      double budget = compiled.total_budget;
      bool alive = true;
      for (std::size_t pi = 0; pi < pieces.size(); ++pi) {
        const Piece& piece = pieces[pi];
        const double cost = MinDist2Spans(cursors[pi].lo(), cursors[pi].hi(),
                                          piece.feature.data(), dims) *
                            piece.scale;
        if (cost > budget) {
          alive = false;
          break;
        }
        budget -= cost;
      }
      if (alive) {
        // Verify in generation order (stream, then end time: the order
        // VerifyPositions sorts into) from the raw ring, with its
        // arithmetic.
        if (summarizer.GetWindow(t, length, &window).ok()) {
          ++result.candidates;
          NormalizeWindowInPlace(&window, config.normalization, config.r_max);
          const double d2 = Dist2(compiled.query_norm, window);
          if (d2 <= r2) result.matches.push_back({stream, t, std::sqrt(d2)});
        } else {
          ++result.unverifiable;
        }
      }
      if (t == t_max) break;
      for (LevelThread::Cursor& cursor : cursors) cursor.Next();
    }
  }
  return result;
}

Result<std::vector<PatternMatch>> PatternQueryEngine::TopKOnline(
    const std::vector<double>& query, std::size_t k) const {
  if (k == 0) return std::vector<PatternMatch>{};
  const StardustConfig& config = core_.config();
  // Validate via a zero-radius probe (shares QueryOnline's checks).
  Result<PatternResult> probe = QueryOnline(query, 0.0);
  if (!probe.ok()) return probe.status();

  // Seed: the k-th nearest box to the first sub-query's feature gives a
  // sound lower bound on the k-th best match distance (every position in
  // a box is at least MinDist away in the first piece alone).
  std::size_t first_level = 0;
  {
    const std::size_t b = query.size() / config.base_window;
    while (((b >> first_level) & 1) == 0) ++first_level;
  }
  const std::size_t w1 = config.LevelWindow(first_level);
  std::vector<double> piece(query.end() - w1, query.end());
  const std::vector<double> normalized =
      NormalizeWindow(piece, config.normalization, config.r_max);
  const Point feature = DwtFeature(normalized, config.coefficients);
  std::vector<RTreeEntry> nearest;
  core_.index(first_level).SearchKNearest(feature, k, &nearest);
  double radius = 1e-6;
  if (!nearest.empty()) {
    const double d2 = nearest.back().box.MinDist2(feature);
    const double lower = std::sqrt(
        d2 * static_cast<double>(w1) / static_cast<double>(query.size()));
    radius = std::max(radius, lower);
  }

  // Expand until at least k verified matches (or the radius exceeds any
  // possible normalized distance).
  const double max_radius =
      config.normalization == Normalization::kNone ? 1e30 : 2.01;
  for (;;) {
    Result<PatternResult> result = QueryOnline(query, radius);
    if (!result.ok()) return result.status();
    std::vector<PatternMatch> matches = std::move(result.value().matches);
    if (matches.size() >= k || radius > max_radius) {
      std::sort(matches.begin(), matches.end(),
                [](const PatternMatch& a, const PatternMatch& b) {
                  return a.distance < b.distance;
                });
      if (matches.size() > k) matches.resize(k);
      return matches;
    }
    radius *= 2.0;
  }
}

Result<PatternResult> PatternQueryEngine::QueryBatch(
    const std::vector<double>& query, double radius) const {
  const StardustConfig& config = core_.config();
  if (config.transform != TransformKind::kDwt || !config.index_features) {
    return Status::FailedPrecondition(
        "pattern queries require an indexed DWT configuration");
  }
  if (config.update_period != config.base_window ||
      config.box_capacity != 1 ||
      config.update_schedule != UpdateSchedule::kUniform) {
    return Status::FailedPrecondition(
        "QueryBatch requires the batch algorithm (uniform T == W, c == 1)");
  }
  if (radius < 0.0) return Status::InvalidArgument("negative radius");
  const std::size_t W = config.base_window;
  if (query.size() < 2 * W - 1) {
    return Status::InvalidArgument(
        "query must be at least 2W - 1 values long");
  }

  // Largest level whose window fits every alignment: 2^j W + W - 1 <= |Q|.
  std::size_t level = 0;
  while (level + 1 < config.num_levels &&
         config.LevelWindow(level + 1) + W - 1 <= query.size()) {
    ++level;
  }
  const std::size_t w = config.LevelWindow(level);
  const std::size_t p = (query.size() - W + 1) / w;
  SD_CHECK(p >= 1);
  const double r_piece2 =
      radius * radius * BudgetScale(config, query.size()) /
      (static_cast<double>(p) * BudgetScale(config, w));
  const double r_piece = std::sqrt(r_piece2);

  // Gather every prefix/disjoint piece feature into the query MBR
  // (Algorithm 4's double loop) and keep the features for the alignment
  // filter below.
  struct QueryPiece {
    std::size_t start;  // offset of the piece within the query
    Point feature;
  };
  std::vector<QueryPiece> query_pieces;
  Mbr query_box(config.coefficients);
  for (std::size_t i = 0; i < W; ++i) {
    for (std::size_t k = 0; i + (k + 1) * w <= query.size(); ++k) {
      const std::size_t start = i + k * w;
      std::vector<double> piece(query.begin() + start,
                                query.begin() + start + w);
      const std::vector<double> normalized =
          NormalizeWindow(piece, config.normalization, config.r_max);
      Point feature = DwtFeature(normalized, config.coefficients);
      query_box.Expand(feature);
      query_pieces.push_back({start, std::move(feature)});
    }
  }
  query_box.Inflate(r_piece);

  std::vector<RTreeEntry> entries;
  core_.index(level).SearchIntersects(query_box, &entries);

  // Reconstruct alignments: a data window starting at s = seq·W matched
  // against query piece at offset `start` implies a match ending at
  // s - start + |Q| - 1.
  std::vector<std::pair<StreamId, std::uint64_t>> positions;
  for (const RTreeEntry& entry : entries) {
    const StreamId stream = RecordStream(entry.id);
    const std::uint64_t s = RecordSeq(entry.id) * W;
    const Point& feature = entry.box.lo();  // c == 1: degenerate box
    const std::uint64_t now = core_.summarizer(stream).now();
    for (const QueryPiece& qp : query_pieces) {
      if (s < qp.start) continue;
      const std::uint64_t end = s - qp.start + query.size() - 1;
      if (end >= now) continue;
      if (Dist2(feature, qp.feature) > r_piece2) continue;
      positions.emplace_back(stream, end);
    }
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());

  // Multi-piece radius refinement (Faloutsos et al., as used by
  // Algorithm 4): for each alignment, the squared distances of ALL its
  // disjoint pieces add up, so the summed feature distances must fit the
  // total unnormalized budget.
  std::vector<const Point*> piece_at(query.size(), nullptr);
  for (const QueryPiece& qp : query_pieces) {
    piece_at[qp.start] = &qp.feature;
  }
  const double total_budget = TotalBudget(config, query.size(), radius);
  const double piece_scale = BudgetScale(config, w);
  std::vector<std::pair<StreamId, std::uint64_t>> refined;
  refined.reserve(positions.size());
  for (const auto& [stream, end] : positions) {
    const std::uint64_t t0 = end + 1 - query.size();
    // Offset of the first contained data window within the query.
    const std::size_t i_star =
        static_cast<std::size_t>((W - (t0 % W)) % W);
    const LevelThread& thread = core_.summarizer(stream).thread(level);
    double used = 0.0;
    bool pruned = false;
    for (std::size_t o = i_star; o + w <= query.size(); o += w) {
      SD_DCHECK(piece_at[o] != nullptr);
      const std::uint64_t seq = (t0 + o) / W;
      const FeatureBox* box = thread.FindBySeq(seq);
      if (box == nullptr) continue;  // expired: no contribution
      used += Dist2Spans(thread.Lo(*box), piece_at[o]->data(),
                         piece_at[o]->size()) *
              piece_scale;
      if (used > total_budget) {
        pruned = true;
        break;
      }
    }
    if (!pruned) refined.emplace_back(stream, end);
  }

  PatternResult result;
  const std::vector<double> query_norm =
      NormalizeWindow(query, config.normalization, config.r_max);
  VerifyPositions(query_norm, radius, &refined, &result);
  return result;
}

}  // namespace stardust
