#include "storage/serializer.h"

#include "crypto/rsa.h"
#include "storage/file_io.h"
#include "storage/format.h"

// SerializeSpPackage / DeserializeSpPackage live in package_store.cc, next
// to the section codec they share with PackageStore::Write / Open.

namespace imageproof::storage {

namespace {

constexpr uint32_t kParamsMagic = 0x49505042;  // "IPPB"
constexpr uint32_t kFormatVersion = 1;

}  // namespace

Bytes SerializePublicParams(const core::PublicParams& params) {
  ByteWriter w;
  w.PutU32(kParamsMagic);
  w.PutU32(kFormatVersion);
  PutConfig(w, params.config);
  PutBigInt(w, params.public_key.n);
  PutBigInt(w, params.public_key.e);
  w.PutBlob(params.root_signature);
  w.PutVarint(params.dims);
  w.PutVarint(params.num_clusters);
  return w.Take();
}

Result<core::PublicParams> DeserializePublicParams(const Bytes& data) {
  ByteReader r(data);
  uint32_t magic = 0, version = 0;
  Status s;
  if (!(s = r.GetU32(&magic)).ok()) return s;
  if (magic != kParamsMagic) return Status::Corrupted("storage: bad params magic");
  if (!(s = r.GetU32(&version)).ok()) return s;
  if (version != kFormatVersion) {
    return Status::Corrupted("storage: unknown version");
  }
  core::PublicParams params;
  if (!(s = GetConfig(r, &params.config)).ok()) return s;
  if (!(s = GetBigInt(r, &params.public_key.n)).ok()) return s;
  if (!(s = GetBigInt(r, &params.public_key.e)).ok()) return s;
  if (params.public_key.ModulusBytes() < crypto::kRsaMinModulusBytes) {
    return Status::Corrupted("storage: RSA modulus too short");
  }
  if (!(s = r.GetBlob(&params.root_signature)).ok()) return s;
  uint64_t v;
  if (!(s = r.GetVarint(&v)).ok()) return s;
  params.dims = v;
  if (!(s = r.GetVarint(&v)).ok()) return s;
  params.num_clusters = v;
  if (!r.AtEnd()) return Status::Corrupted("storage: trailing bytes");
  return params;
}

Status SavePublicParams(const std::string& path,
                        const core::PublicParams& params) {
  return AtomicWriteFile(path, SerializePublicParams(params));
}

Result<core::PublicParams> LoadPublicParams(const std::string& path) {
  Bytes data;
  Status s = ReadFileBytes(path, &data);
  if (!s.ok()) return s;
  return DeserializePublicParams(data);
}

}  // namespace imageproof::storage
