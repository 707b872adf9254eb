// The server-side query catalog: the names the wire protocol serves.
//
// A convex::CmQuery is a non-owning (loss, domain) view — it cannot
// travel by value over a socket. The catalog is the protocol's answer:
// the server registers named queries (owning the generated losses via
// their families), requests reference entries by name, and the endpoint
// resolves names back to CmQuery views before forwarding into the
// dispatcher. Because resolution is pointer-stable, repeated requests for
// one name hit every layer of plan caching (batch dedup, cross-batch
// serve::PlanCache) exactly like pointer-identical queries always have.
//
// Populate() wraps the Table 1 loss families (src/losses) so client code
// can build realistic workloads through the api surface alone.

#ifndef PMWCM_API_CATALOG_H_
#define PMWCM_API_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "convex/cm_query.h"
#include "losses/loss_family.h"

namespace pmw {
namespace api {

/// A loss-family workload to populate a catalog from (the paper's
/// Table 1 rows).
struct WorkloadSpec {
  enum class Family {
    kLipschitz,       // row 2: Lipschitz losses over the unit ball
    kGlm,             // row 3: unconstrained generalized linear models
    kStronglyConvex,  // row 4: sigma-strongly convex losses
    kLinearQueries,   // row 1: counting queries embedded as CM queries
  };
  Family family = Family::kLipschitz;
  int dim = 4;
  /// kStronglyConvex only.
  double sigma = 1.0;
  /// kLinearQueries only.
  int max_width = 3;
  bool include_label = true;
};

/// Named CM queries a ServerEndpoint is willing to answer. Build it
/// before the endpoint, then treat it as immutable while serving (name
/// resolution happens on submitter threads without locking).
class QueryCatalog {
 public:
  QueryCatalog() = default;
  QueryCatalog(const QueryCatalog&) = delete;
  QueryCatalog& operator=(const QueryCatalog&) = delete;

  /// Registers an externally owned query under `name` (the loss/domain
  /// must outlive the catalog). Returns false when the name is taken.
  bool Register(const std::string& name, const convex::CmQuery& query);

  /// Generates `count` queries from the family spec — the catalog owns
  /// the family and every generated loss — registering them as
  /// "<prefix><i>". Returns the registered names in generation order.
  /// Deterministic in `seed`.
  std::vector<std::string> Populate(const WorkloadSpec& spec, int count,
                                    uint64_t seed, const std::string& prefix);

  /// Name lookup; null on a miss. The returned view is pointer-stable
  /// for the catalog's lifetime.
  const convex::CmQuery* Find(const std::string& name) const;

  /// The family-wide scale bound S across everything registered (what
  /// PmwOptions::scale must cover).
  double scale() const { return scale_; }

  size_t size() const { return by_name_.size(); }
  /// Registered names in registration order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, convex::CmQuery> by_name_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<losses::QueryFamily>> families_;
  double scale_ = 0.0;
};

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_CATALOG_H_
