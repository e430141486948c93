#ifndef MIDAS_IRES_FEATURES_H_
#define MIDAS_IRES_FEATURES_H_

#include <span>
#include <string>
#include <vector>

#include "federation/federation.h"
#include "linalg/matrix.h"
#include "query/plan.h"

namespace midas {

/// \brief Regression features of a physical plan — exactly Example 2.1's
/// variables, generalised per federation site:
///   data_mib_<site> — MiB of base data the plan scans at the site (after
///                     partition pruning): the x_Pa / x_Ge "size of data"
///                     variables;
///   nodes_<site>    — VMs the plan holds there: x_nodeA / x_nodeB.
///
/// Arity is fixed at 2 × num_sites for a given federation, so one MLR can
/// be fitted per query template ("our cost functions are functions of the
/// size of data", §3). Constant columns (a table whose size never varies)
/// are harmless: the OLS fit is rank-revealing.
///
/// Requires the plan's cardinalities to be estimated and its physical
/// annotations set (the enumerator produces both).
StatusOr<Vector> ExtractFeatures(const Federation& federation,
                                 const QueryPlan& plan);

/// ExtractFeatures over a batch of plans: row i of the result is plan i's
/// feature vector (the estimators' PredictBatch input layout).
StatusOr<Matrix> ExtractFeatureMatrix(const Federation& federation,
                                      std::span<const QueryPlan> plans);

/// Names matching ExtractFeatures' layout.
std::vector<std::string> FeatureNames(const Federation& federation);

}  // namespace midas

#endif  // MIDAS_IRES_FEATURES_H_
