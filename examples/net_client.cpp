// Remote verifying client for a running net_server.
//
//   net_client <dir> <host> <port> query    send a query, verify the VO
//   net_client <dir> <host> <port> status   print server counters
//   net_client <dir> <host> <port> insert   owner: insert one image remotely
//
// <dir> is a deployment_cli-built epoch directory: params.bin supplies the
// TRUSTED public parameters (config + owner RSA public key) the client
// verifies against — obtained out of band, never from the server. The
// CURRENT epoch is mapped only to synthesize query features from the
// codebook (standing in for running SIFT on a real query image).
//
// Exit codes follow the wire taxonomy (net::ExitCodeForStatus): 0 verified
// OK, 11 rejected/bad request, 12 shed, 13 deadline, 14 unavailable, 15
// corrupted bytes, 16 server internal error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/client.h"
#include "storage/package_store.h"
#include "storage/serializer.h"
#include "workload/synthetic.h"

using namespace imageproof;

namespace {

int Fail(const char* step, const Status& status) {
  std::printf("net_client: %s failed: [%s] %s\n", step,
              StatusCodeToString(status.code()), status.message().c_str());
  return net::ExitCodeForStatus(status);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) {
    std::printf("usage: %s <dir> <host> <port> {query|status|insert}\n",
                argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  const std::string host = argv[2];
  const uint16_t port = static_cast<uint16_t>(std::atoi(argv[3]));
  const std::string cmd = argv[4];

  auto params = storage::LoadPublicParams(dir + "/params.bin");
  if (!params.ok()) return Fail("load trusted params", params.status());

  auto client = net::NetClient::Connect(host, port, std::move(params).value());
  if (!client.ok()) return Fail("connect", client.status());

  if (cmd == "status") {
    auto status = client->ServerStatus();
    if (!status.ok()) return Fail("status", status.status());
    std::printf("snapshot v%llu  served %llu  shed %llu  deadline %llu  "
                "unavailable %llu  queue %llu  in-flight %llu  updates %llu  "
                "stopped %d\n",
                static_cast<unsigned long long>(status->snapshot_version),
                static_cast<unsigned long long>(status->queries_served),
                static_cast<unsigned long long>(status->queries_shed),
                static_cast<unsigned long long>(status->deadline_exceeded),
                static_cast<unsigned long long>(status->rejected_unavailable),
                static_cast<unsigned long long>(status->queue_depth),
                static_cast<unsigned long long>(status->in_flight),
                static_cast<unsigned long long>(status->updates_applied),
                static_cast<int>(status->stopped));
    return 0;
  }

  // query/insert need the codebook (and a source image) to synthesize
  // features; a real client would extract SIFT from its own query image.
  auto pkg = storage::PackageStore::OpenCurrent(dir);
  if (!pkg.ok()) return Fail("open epoch (feature synthesis)", pkg.status());

  if (cmd == "query") {
    auto features = workload::FeaturesFromBovw(
        (*pkg)->codebook, (*pkg)->corpus[3].second, 40, 0.2, 0.1, 99);
    auto result = client->Query(features, 5, /*deadline_ms=*/10000);
    if (!result.ok()) return Fail("query", result.status());
    std::printf("verified top-%zu (frame %zu bytes, VO %zu bytes, snapshot "
                "v%llu):\n",
                result->verified.topk.size(), result->response_frame_bytes,
                result->vo_bytes.size(),
                static_cast<unsigned long long>(result->snapshot_version));
    for (const auto& si : result->verified.topk) {
      std::printf("  image %-8llu similarity >= %.4f\n",
                  static_cast<unsigned long long>(si.id), si.score);
    }
    return 0;
  }

  if (cmd == "insert") {
    bovw::ImageId new_id = 2000000 + (*pkg)->corpus.size();
    auto ack = client->Insert(new_id, (*pkg)->corpus[3].second,
                              workload::GenerateImageBlob(new_id));
    if (!ack.ok()) return Fail("insert", ack.status());
    std::printf("inserted image %llu: snapshot v%llu (%llu lists updated, "
                "%llu nodes rehashed)\n",
                static_cast<unsigned long long>(new_id),
                static_cast<unsigned long long>(ack->new_version),
                static_cast<unsigned long long>(ack->lists_updated),
                static_cast<unsigned long long>(ack->nodes_rehashed));
    return 0;
  }

  std::printf("net_client: unknown command '%s'\n", cmd.c_str());
  return 2;
}
