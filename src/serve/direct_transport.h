// DirectShardTransport: the in-process ShardTransport — a TrassStore
// called through the same request/response structs the wire transport
// serializes, so the coordinator's production path and the socket
// harness exercise identical shard-side semantics.
//
// ExecuteOnStore is the single op-dispatch both this transport and
// ShardServer share: deadline/cancel/partial controls map onto
// QueryOptions, kTopK always runs the store's top-k and prunes at the
// request's bound — the coordinator's live cell in process, or a local
// cell seeded with the launch-time `bound` off the wire (shard_transport.h)
// — and kExport streams decoded rows.

#ifndef TRASS_SERVE_DIRECT_TRANSPORT_H_
#define TRASS_SERVE_DIRECT_TRANSPORT_H_

#include <string>

#include "core/trass_store.h"
#include "serve/shard_transport.h"

namespace trass {
namespace serve {

/// Runs one ShardRequest against `store`. Shared by DirectShardTransport
/// and ShardServer. Thread-safe (TrassStore queries are).
Status ExecuteOnStore(core::TrassStore* store, const ShardRequest& request,
                      const std::atomic<bool>* cancel,
                      ShardResponse* response);

class DirectShardTransport : public ShardTransport {
 public:
  /// `store` is borrowed and must outlive the transport (and any
  /// coordinator built on it).
  explicit DirectShardTransport(core::TrassStore* store) : store_(store) {}

  Status Execute(const ShardRequest& request, const std::atomic<bool>* cancel,
                 ShardResponse* response) override {
    return ExecuteOnStore(store_, request, cancel, response);
  }

  std::string Describe() const override { return "direct"; }

  core::TrassStore* store() { return store_; }

 private:
  core::TrassStore* store_;
};

}  // namespace serve
}  // namespace trass

#endif  // TRASS_SERVE_DIRECT_TRANSPORT_H_
