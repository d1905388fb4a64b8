#ifndef DATACRON_QUERY_QUERY_H_
#define DATACRON_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time_utils.h"
#include "geo/bbox.h"
#include "rdf/term.h"

namespace datacron {

/// A position in a triple pattern: either a bound term or a variable.
struct QueryTerm {
  /// Bound term (kInvalidTermId when this is a variable).
  TermId term = kInvalidTermId;
  /// Variable index in [0, Query::num_vars); -1 when bound.
  int var = -1;

  bool IsVar() const { return var >= 0; }

  static QueryTerm Bound(TermId t) { return QueryTerm{t, -1}; }
  static QueryTerm Var(int v) { return QueryTerm{kInvalidTermId, v}; }
};

/// One triple pattern of a basic graph pattern.
struct QueryTriple {
  QueryTerm s, p, o;
};

/// FILTER: variable must bind to a position node located inside `box`.
struct SpatialConstraint {
  int var = -1;
  BoundingBox box;
};

/// FILTER: variable must bind to a position node with timestamp in
/// [t_min, t_max].
struct TemporalConstraint {
  int var = -1;
  TimestampMs t_min = 0;
  TimestampMs t_max = 0;
};

/// The term a parsed query binds a constant to when the dictionary does
/// not hold it: nonzero, so a pattern never reads it as a wildcard, and a
/// batch-local id, which no store holds (see kLocalTermBit).
constexpr TermId kUnknownTermId = kLocalTermBit;

/// A conjunctive spatiotemporal RDF query: a BGP plus spatial/temporal
/// constraints on node variables — the query class the datAcron
/// spatiotemporal query-answering component serves. Constraints both
/// filter results and prune partitions before any index is touched.
struct Query {
  int num_vars = 0;
  std::vector<QueryTriple> bgp;
  std::vector<SpatialConstraint> spatial;
  std::vector<TemporalConstraint> temporal;
  /// Set when some constant of the BGP is kUnknownTermId: no triple can
  /// match it, so every strategy answers with zero rows.
  bool unsatisfiable = false;
};

/// Fluent builder so examples/tests read declaratively.
class QueryBuilder {
 public:
  /// Returns the index of a named variable, creating it on first use.
  int Var(const std::string& name);

  QueryBuilder& Pattern(QueryTerm s, QueryTerm p, QueryTerm o);
  /// Convenience: subject variable name, bound predicate, object either
  /// variable name (prefixed "?") or bound id.
  QueryBuilder& Where(const std::string& subject_var, TermId predicate,
                      TermId object);
  QueryBuilder& WhereVar(const std::string& subject_var, TermId predicate,
                         const std::string& object_var);
  QueryBuilder& Within(const std::string& node_var, const BoundingBox& box);
  QueryBuilder& During(const std::string& node_var, TimestampMs t_min,
                       TimestampMs t_max);

  Query Build() const { return query_; }

 private:
  std::vector<std::string> var_names_;
  Query query_;
};

/// One result row: value of each variable (kInvalidTermId = unbound).
using Binding = std::vector<TermId>;

}  // namespace datacron

#endif  // DATACRON_QUERY_QUERY_H_
