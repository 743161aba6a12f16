#include "net/wire.h"

namespace imageproof::net {

namespace {

Status Corrupt(const char* what) {
  return Status::Corrupted(std::string("wire: ") + what);
}

// Shared tail check: every payload decoder rejects trailing bytes, so a
// frame's length field cannot smuggle dead bytes past the parser (the same
// zero-dead-wire-bytes rule the storage format follows).
Status ExpectEnd(const ByteReader& r, const char* frame) {
  if (!r.AtEnd()) {
    return Status::Corrupted(std::string("wire: trailing bytes in ") + frame);
  }
  return Status::Ok();
}

}  // namespace

const char* WireErrorToString(WireError code) {
  switch (code) {
    case WireError::kBadRequest:
      return "BAD_REQUEST";
    case WireError::kOverloaded:
      return "OVERLOADED";
    case WireError::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case WireError::kUnavailable:
      return "UNAVAILABLE";
    case WireError::kCorrupted:
      return "CORRUPTED";
    case WireError::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

WireError WireErrorFromStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kError:
      return WireError::kBadRequest;
    case StatusCode::kOverloaded:
      return WireError::kOverloaded;
    case StatusCode::kDeadlineExceeded:
      return WireError::kDeadlineExceeded;
    case StatusCode::kUnavailable:
      return WireError::kUnavailable;
    case StatusCode::kCorrupted:
      return WireError::kCorrupted;
  }
  return WireError::kInternal;
}

Status StatusFromWireError(uint8_t code, std::string message) {
  switch (static_cast<WireError>(code)) {
    case WireError::kOverloaded:
      return Status::Overloaded(std::move(message));
    case WireError::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case WireError::kUnavailable:
      return Status::Unavailable(std::move(message));
    case WireError::kCorrupted:
      return Status::Corrupted(std::move(message));
    case WireError::kBadRequest:
    case WireError::kInternal:
      return Status::Error(std::move(message));
  }
  return Status::Error(std::move(message));
}

int ExitCodeForStatus(const Status& status) {
  if (status.ok()) return 0;
  return 10 + static_cast<int>(WireErrorFromStatus(status.code()));
}

void AppendFrame(FrameType type, const Bytes& payload, Bytes* out,
                 uint8_t flags, uint16_t version) {
  ByteWriter w;
  w.PutU32(kWireMagic);
  w.PutU8(static_cast<uint8_t>(version & 0xFF));
  w.PutU8(static_cast<uint8_t>(version >> 8));
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(flags);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  out->insert(out->end(), w.bytes().begin(), w.bytes().end());
  out->insert(out->end(), payload.begin(), payload.end());
}

Bytes EncodeFrame(FrameType type, const Bytes& payload, uint8_t flags,
                  uint16_t version) {
  Bytes out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(type, payload, &out, flags, version);
  return out;
}

Status DecodeFrameHeader(const uint8_t* data, size_t size, FrameHeader* out) {
  if (size < kFrameHeaderBytes) return Corrupt("short frame header");
  ByteReader r(data, kFrameHeaderBytes);
  uint32_t magic = 0, len = 0;
  uint8_t vlo = 0, vhi = 0, type = 0, flags = 0;
  Status s;
  if (!(s = r.GetU32(&magic)).ok()) return s;
  if (magic != kWireMagic) return Corrupt("bad magic");
  if (!(s = r.GetU8(&vlo)).ok() || !(s = r.GetU8(&vhi)).ok()) return s;
  uint16_t version = static_cast<uint16_t>(vlo | (vhi << 8));
  if (version < kWireVersion || version > kMaxWireVersion) {
    return Corrupt("unknown protocol version");
  }
  if (!(s = r.GetU8(&type)).ok()) return s;
  const uint8_t max_type =
      version >= kWireVersionComposite
          ? static_cast<uint8_t>(FrameType::kCompositeResponse)
          : static_cast<uint8_t>(FrameType::kUpdateAck);
  if (type < static_cast<uint8_t>(FrameType::kQuery) || type > max_type) {
    return Corrupt("unknown frame type");
  }
  if (!(s = r.GetU8(&flags)).ok()) return s;
  // Flags are gated by type AND version: only a query may carry the
  // VO-compression opt-in, only a query of version kWireVersionComposite or
  // later the composite request.
  // Every other bit stays reserved and rejected, so future capabilities
  // fail loudly instead of being silently ignored.
  uint8_t allowed = 0;
  if (type == static_cast<uint8_t>(FrameType::kQuery)) {
    allowed = kFrameFlagCompressVo;
    if (version >= kWireVersionComposite) allowed |= kFrameFlagComposite;
  }
  if ((flags & ~allowed) != 0) return Corrupt("reserved flags set");
  if (!(s = r.GetU32(&len)).ok()) return s;
  if (len > kMaxFramePayload) return Corrupt("frame exceeds size limit");
  out->type = static_cast<FrameType>(type);
  out->flags = flags;
  out->payload_len = len;
  out->version = version;
  return Status::Ok();
}

ExtractResult TryExtractFrame(Bytes* buffer, FrameHeader* header,
                              Bytes* payload, Status* error) {
  if (buffer->size() < kFrameHeaderBytes) {
    // A short buffer only counts as a valid prefix if what is present could
    // still grow into a well-formed header (magic bytes must match so far).
    for (size_t i = 0; i < buffer->size() && i < 4; ++i) {
      if ((*buffer)[i] != static_cast<uint8_t>(kWireMagic >> (8 * i))) {
        *error = Corrupt("bad magic");
        return ExtractResult::kCorrupt;
      }
    }
    return ExtractResult::kNeedMore;
  }
  Status s = DecodeFrameHeader(buffer->data(), buffer->size(), header);
  if (!s.ok()) {
    *error = std::move(s);
    return ExtractResult::kCorrupt;
  }
  size_t total = kFrameHeaderBytes + header->payload_len;
  if (buffer->size() < total) return ExtractResult::kNeedMore;
  payload->assign(buffer->begin() + kFrameHeaderBytes, buffer->begin() + total);
  buffer->erase(buffer->begin(), buffer->begin() + total);
  return ExtractResult::kFrame;
}

// --- query ------------------------------------------------------------------

Bytes EncodeQueryRequest(const QueryRequest& req) {
  ByteWriter w;
  w.PutU32(req.deadline_ms);
  w.PutVarint(req.k);
  w.PutVarint(req.features.size());
  for (const auto& f : req.features) {
    w.PutVarint(f.size());
    for (float v : f) w.PutF32(v);
  }
  return w.Take();
}

Status DecodeQueryRequest(const Bytes& payload, QueryRequest* out) {
  ByteReader r(payload);
  Status s;
  if (!(s = r.GetU32(&out->deadline_ms)).ok()) return s;
  if (!(s = r.GetVarint(&out->k)).ok()) return s;
  uint64_t n = 0;
  if (!(s = r.GetVarint(&n)).ok()) return s;
  if (n > kMaxQueryFeatures) return Corrupt("absurd feature count");
  if (n > r.remaining()) {  // each feature costs at least its length byte
    return Corrupt("feature count exceeds input size");
  }
  out->features.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t dims = 0;
    if (!(s = r.GetVarint(&dims)).ok()) return s;
    if (dims == 0 || dims > kMaxFeatureDims) return Corrupt("bad feature dims");
    if (dims > r.remaining() / 4) {
      return Corrupt("feature vector exceeds input size");
    }
    auto& f = out->features[i];
    f.resize(dims);
    for (uint64_t d = 0; d < dims; ++d) {
      if (!(s = r.GetF32(&f[d])).ok()) return s;
    }
  }
  return ExpectEnd(r, "query request");
}

// --- response ---------------------------------------------------------------

Bytes EncodeResponse(const ResponseFrame& resp) {
  ByteWriter w;
  w.PutU64(resp.snapshot_version);
  w.PutBlob(resp.root_signature);
  w.PutBlob(resp.vo_bytes);
  return w.Take();
}

Status DecodeResponse(const Bytes& payload, ResponseFrame* out) {
  ByteReader r(payload);
  Status s;
  if (!(s = r.GetU64(&out->snapshot_version)).ok()) return s;
  if (!(s = r.GetBlob(&out->root_signature)).ok()) return s;
  if (!(s = r.GetBlob(&out->vo_bytes)).ok()) return s;
  return ExpectEnd(r, "response");
}

// --- error ------------------------------------------------------------------

Bytes EncodeError(const ErrorFrame& err) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(err.code));
  std::string msg = err.message;
  if (msg.size() > kMaxErrorMessage) msg.resize(kMaxErrorMessage);
  w.PutString(msg);
  return w.Take();
}

Status DecodeError(const Bytes& payload, ErrorFrame* out) {
  ByteReader r(payload);
  uint8_t code = 0;
  Status s;
  if (!(s = r.GetU8(&code)).ok()) return s;
  if (code < static_cast<uint8_t>(WireError::kBadRequest) ||
      code > static_cast<uint8_t>(WireError::kInternal)) {
    return Corrupt("unknown error code");
  }
  out->code = static_cast<WireError>(code);
  if (!(s = r.GetString(&out->message)).ok()) return s;
  if (out->message.size() > kMaxErrorMessage) {
    return Corrupt("oversized error message");
  }
  return ExpectEnd(r, "error frame");
}

// --- status -----------------------------------------------------------------

Bytes EncodeStatusReply(const StatusReply& status) {
  ByteWriter w;
  w.PutU64(status.snapshot_version);
  w.PutU64(status.queries_served);
  w.PutU64(status.queries_shed);
  w.PutU64(status.deadline_exceeded);
  w.PutU64(status.rejected_unavailable);
  w.PutU64(status.queue_depth);
  w.PutU64(status.in_flight);
  w.PutU64(status.updates_applied);
  w.PutU8(status.stopped ? 1 : 0);
  return w.Take();
}

Status DecodeStatusReply(const Bytes& payload, StatusReply* out) {
  ByteReader r(payload);
  Status s;
  if (!(s = r.GetU64(&out->snapshot_version)).ok()) return s;
  if (!(s = r.GetU64(&out->queries_served)).ok()) return s;
  if (!(s = r.GetU64(&out->queries_shed)).ok()) return s;
  if (!(s = r.GetU64(&out->deadline_exceeded)).ok()) return s;
  if (!(s = r.GetU64(&out->rejected_unavailable)).ok()) return s;
  if (!(s = r.GetU64(&out->queue_depth)).ok()) return s;
  if (!(s = r.GetU64(&out->in_flight)).ok()) return s;
  if (!(s = r.GetU64(&out->updates_applied)).ok()) return s;
  uint8_t stopped = 0;
  if (!(s = r.GetU8(&stopped)).ok()) return s;
  if (stopped > 1) return Corrupt("bad bool encoding");
  out->stopped = stopped != 0;
  return ExpectEnd(r, "status reply");
}

// --- updates ----------------------------------------------------------------

Bytes EncodeInsertRequest(const InsertRequest& req) {
  ByteWriter w;
  w.PutVarint(req.id);
  w.PutVarint(req.bovw.entries.size());
  for (const auto& [c, f] : req.bovw.entries) {
    w.PutVarint(c);
    w.PutVarint(f);
  }
  w.PutBlob(req.image_data);
  return w.Take();
}

Status DecodeInsertRequest(const Bytes& payload, InsertRequest* out) {
  ByteReader r(payload);
  Status s;
  if (!(s = r.GetVarint(&out->id)).ok()) return s;
  uint64_t n = 0;
  if (!(s = r.GetVarint(&n)).ok()) return s;
  if (n > r.remaining() / 2) return Corrupt("BoVW size exceeds input");
  out->bovw.entries.resize(n);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t c = 0, f = 0;
    if (!(s = r.GetVarint(&c)).ok()) return s;
    if (!(s = r.GetVarint(&f)).ok()) return s;
    // Same strictness as the storage format: sorted clusters, nonzero
    // frequencies, and no high varint bits a 32-bit narrow would drop.
    if (i > 0 && c <= prev) return Corrupt("BoVW not sorted");
    if (f == 0) return Corrupt("zero BoVW frequency");
    if (c > 0xFFFFFFFFull || f > 0xFFFFFFFFull) {
      return Corrupt("BoVW entry out of range");
    }
    out->bovw.entries[i] = {static_cast<bovw::ClusterId>(c),
                            static_cast<uint32_t>(f)};
    prev = c;
  }
  if (!(s = r.GetBlob(&out->image_data)).ok()) return s;
  return ExpectEnd(r, "insert request");
}

Bytes EncodeDeleteRequest(const DeleteRequest& req) {
  ByteWriter w;
  w.PutVarint(req.id);
  return w.Take();
}

Status DecodeDeleteRequest(const Bytes& payload, DeleteRequest* out) {
  ByteReader r(payload);
  Status s;
  if (!(s = r.GetVarint(&out->id)).ok()) return s;
  return ExpectEnd(r, "delete request");
}

Bytes EncodeUpdateAck(const UpdateAck& ack) {
  ByteWriter w;
  w.PutU64(ack.new_version);
  w.PutU64(ack.lists_updated);
  w.PutU64(ack.nodes_rehashed);
  return w.Take();
}

Status DecodeUpdateAck(const Bytes& payload, UpdateAck* out) {
  ByteReader r(payload);
  Status s;
  if (!(s = r.GetU64(&out->new_version)).ok()) return s;
  if (!(s = r.GetU64(&out->lists_updated)).ok()) return s;
  if (!(s = r.GetU64(&out->nodes_rehashed)).ok()) return s;
  return ExpectEnd(r, "update ack");
}

}  // namespace imageproof::net
