#ifndef PDM_RULES_QUERY_BUILDER_H_
#define PDM_RULES_QUERY_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pdm/product_tree.h"
#include "sql/ast.h"

namespace pdm::rules {

/// Name of the recursive table in generated tree queries (the paper's
/// `rtbl`).
inline constexpr char kRecursiveTableName[] = "rtbl";

/// Generates the SQL statements the PDM client ships to the server —
/// the "query generation" component Section 7 lists among the parts a
/// real PDM system would have to change. All builders work over the
/// schema in pdm/pdm_schema.h and produce homogenized results (one
/// result type enfolding all object attributes, Section 5.2).

/// The full recursive tree query of Section 5.2, generalized to the PDM
/// schema: WITH RECURSIVE rtbl AS (seed ∪ assy-step ∪ comp-step)
/// followed by the homogenizing outer query (object rows + link rows),
/// ORDER BY 1,2. Rules are injected afterwards by the QueryModificator.
///
/// `max_depth` > 0 limits the recursion to that many levels below the
/// root (a partial multi-level expand — the user stops "until they find
/// what they look for"); 0 retrieves the entire structure. `hierarchy`
/// selects which of the parallel structures the traversal follows
/// (physical by default; see pdm/pdm_schema.h).
std::unique_ptr<sql::SelectStmt> BuildRecursiveTreeQuery(
    int64_t root_obid, int max_depth = 0,
    const std::string& hierarchy = "phys");

/// One navigational single-level expand: the children of `parent_obid`
/// of all object types, each child row carrying its link attributes
/// (one statement, hence one round trip per expanded node).
std::unique_ptr<sql::SelectStmt> BuildExpandQuery(
    int64_t parent_obid, const std::string& hierarchy = "phys");

/// The root assembly's homogenized row alone — the row the recursive
/// tree query seeds rtbl with (its select list minus `lvl`).
std::unique_ptr<sql::SelectStmt> BuildRootRowQuery(int64_t root_obid);

/// The "query" action of Section 2: all object nodes, no structure
/// information (one statement over assy ∪ comp).
std::unique_ptr<sql::SelectStmt> BuildFlatQuery();

/// UPDATE setting the checkedout flag of every visible object in
/// `obids`; used by the check-out flows.
std::unique_ptr<sql::Statement> BuildCheckOutUpdate(
    const std::string& object_table, const std::vector<int64_t>& obids,
    bool checked_out);

/// The flag UPDATEs of a check-out (or check-in) of a retrieved `tree`:
/// one per object table, listing each of the tree's objects of that
/// type once, in tree order. With `per_object`, one UPDATE per object
/// instead (the navigational client's status quo). Tables come in name
/// order; an empty tree (a denied retrieval) yields none.
std::vector<std::unique_ptr<sql::Statement>> BuildCheckOutUpdates(
    const pdmsys::ProductTree& tree, bool checked_out,
    bool per_object = false);

}  // namespace pdm::rules

#endif  // PDM_RULES_QUERY_BUILDER_H_
