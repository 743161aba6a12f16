// Byte-buffer forms of the deployment's persisted state.
//
// A package has one format: the sectioned .ipk image of
// storage/package_store.h. SerializeSpPackage returns exactly the bytes
// PackageStore::Write puts in a file (default page size), and
// DeserializeSpPackage runs the same section decoder PackageStore::Open
// runs over a mapping. The two entry points differ only in what they hand
// back: Open a disk-backed package that restores the stored posting chains
// and serves payloads from the file; DeserializeSpPackage a mutable
// in-memory package (core::InsertImage updates it in place) whose indexes
// are rebuilt from the decoded corpus, weights and filter geometry and
// whose payloads are copied out of the checked blob section.
//
// The public parameters (what clients persist) have their own small codec.
// All encodings are the canonical ones from common/bytes.h.

#ifndef IMAGEPROOF_STORAGE_SERIALIZER_H_
#define IMAGEPROOF_STORAGE_SERIALIZER_H_

#include <memory>
#include <string>

#include "core/owner.h"

namespace imageproof::storage {

// The .ipk byte image of the full SP package (everything the service
// provider hosts). Empty when a disk-backed payload fails its integrity
// check. Carries the storage.serialize.* fault sites (common/fault.h).
Bytes SerializeSpPackage(const core::SpPackage& package);

// Decodes a .ipk byte image into an in-memory package; kCorrupted on any
// flipped, truncated or trailing byte. Index digests (posting chains,
// filters, MRKD roots) are recomputed from the stored raw data, and the
// recomputed root must equal the one the image records.
Result<std::unique_ptr<core::SpPackage>> DeserializeSpPackage(const Bytes& data);

// As above, adopting `codebook_ads` as the package's codebook piece when
// the image's codebook and trees sections carry the digests the piece was
// decoded from (and its forest parameters, reveal mode and layout match);
// otherwise the piece is decoded from the image. The engine's update clone
// passes the served snapshot's piece.
Result<std::unique_ptr<core::SpPackage>> DeserializeSpPackage(
    const Bytes& data,
    const std::shared_ptr<const core::CodebookAds>& codebook_ads);

// Public parameters (what clients persist).
Bytes SerializePublicParams(const core::PublicParams& params);
Result<core::PublicParams> DeserializePublicParams(const Bytes& data);

// File convenience wrappers for the public parameters.
Status SavePublicParams(const std::string& path, const core::PublicParams& params);
Result<core::PublicParams> LoadPublicParams(const std::string& path);

}  // namespace imageproof::storage

#endif  // IMAGEPROOF_STORAGE_SERIALIZER_H_
