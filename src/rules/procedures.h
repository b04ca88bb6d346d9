#ifndef PDM_RULES_PROCEDURES_H_
#define PDM_RULES_PROCEDURES_H_

#include "common/status.h"
#include "engine/database.h"
#include "rules/rule.h"

namespace pdm::rules {

/// Installs the server-side PDM procedures (the paper's Section 6
/// outlook: "application-specific functionality performing the desired
/// user action has to be installed at the database server" to avoid
/// additional WAN communications for check-out/check-in).
///
/// Registered procedures:
///   CALL pdm_checkout(root, user, strc_opt, eff_from, eff_to[, hierarchy])
///     Computes the user's visible subtree of `hierarchy` ('phys' when
///     omitted) with the statement a recursive client ships (rules
///     evaluated server-side, including the ∀rows "nothing already
///     checked out" rule for the check-out action), sets the checkedout
///     flags, and returns one row [checked_out_count] — 0 when the
///     check-out was denied.
///   CALL pdm_checkin(root, user, strc_opt, eff_from, eff_to[, hierarchy])
///     The reverse flag update; returns [checked_in_count].
///
/// `rule_table` is the *server's* copy of the rule table and must
/// outlive the database.
Status RegisterPdmProcedures(Database* db, const RuleTable* rule_table);

}  // namespace pdm::rules

#endif  // PDM_RULES_PROCEDURES_H_
