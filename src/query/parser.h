#ifndef DATACRON_QUERY_PARSER_H_
#define DATACRON_QUERY_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "rdf/term.h"

namespace datacron {

/// A parsed query: the executable Query plus the SELECT projection (which
/// variable names, in which order) and the full variable-name table
/// (index = variable id in Bindings).
struct ParsedQuery {
  Query query;
  std::vector<std::string> select;       // projected variable names
  std::vector<int> select_vars;          // their indices
  std::vector<std::string> var_names;    // all variables by index
};

/// Parses the library's SPARQL-inspired spatiotemporal query dialect:
///
///   SELECT ?node ?speed
///   WHERE {
///     ?node <rdf:type> <dc:PositionNode> .
///     ?node <dc:hasSpeed> ?speed .
///   }
///   WITHIN 36.0 24.0 37.0 25.0 ON ?node
///   DURING 2017-03-20T00:00:00Z 2017-03-21T00:00:00Z ON ?node
///
/// Terms in patterns are `?var`, `<iri>`, or `"lexical"^^kind` with kind
/// in {string,int,double,dateTime} (the N-Triples dialect of
/// rdf/ntriples.h). WITHIN takes min_lat min_lon max_lat max_lon; DURING
/// takes two ISO-8601 instants or raw epoch-millisecond integers. Both
/// clauses may repeat. `SELECT *` projects every variable.
///
/// Bound terms are looked up in `dict`, never interned, so parsing leaves
/// the dictionary and the ids it hands out later unchanged. A term the
/// dictionary does not hold becomes kUnknownTermId and marks the query
/// unsatisfiable: it parses, and answers with zero rows.
Result<ParsedQuery> ParseQuery(const std::string& text,
                               const TermDictionary* dict);

}  // namespace datacron

#endif  // DATACRON_QUERY_PARSER_H_
