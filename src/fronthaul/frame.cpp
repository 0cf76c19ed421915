#include "fronthaul/frame.h"

namespace rb {

bool parse_frame_into(std::span<const std::uint8_t> frame,
                      const FhContext& ctx, FhFrame& out, ParseError* err) {
  const auto fail = [&](ParseError e) {
    if (err) *err = e;
    return false;
  };
  BufReader r(frame);
  auto eth = EthHeader::parse(r);
  if (!eth) return fail(ParseError::TruncatedEth);
  if (eth->ethertype != kEtherTypeEcpri) return fail(ParseError::NotEcpri);
  auto ec = EcpriHeader::parse(r, err);
  if (!ec) return false;  // err already set

  // Restrict the reader to the eCPRI payload so trailing padding (Ethernet
  // minimum frame size) is not misparsed as sections.
  // eCPRI payload_size covers the 4 bytes of pcid+seqid which we already
  // consumed as part of EcpriHeader.
  const std::size_t payload_at = r.pos();
  const std::size_t app_len = ec->payload_size >= 4 ? ec->payload_size - 4 : 0;
  if (frame.size() < payload_at + app_len)
    return fail(ParseError::PayloadOverrun);
  BufReader app(frame.subspan(payload_at, app_len));

  out.eth = *eth;
  out.ecpri = *ec;
  if (ec->msg_type == EcpriMsgType::RtControl) {
    // Reuse the variant's current alternative when the kind matches, so
    // its section vector keeps its capacity.
    CPlaneMsg* c = std::get_if<CPlaneMsg>(&out.msg);
    if (!c) c = &out.msg.emplace<CPlaneMsg>();
    return CPlaneMsg::parse_into(app, *c, err);
  }
  if (ec->msg_type == EcpriMsgType::IqData) {
    UPlaneMsg* u = std::get_if<UPlaneMsg>(&out.msg);
    if (!u) u = &out.msg.emplace<UPlaneMsg>();
    return parse_uplane_into(app, ctx, payload_at, *u, err);
  }
  return fail(ParseError::UnknownEcpriType);
}

std::size_t build_cplane_frame(std::span<std::uint8_t> buf,
                               const EthHeader& eth, const EaxcId& eaxc,
                               std::uint8_t seq_id, const CPlaneMsg& msg,
                               const FhContext& ctx) {
  (void)ctx;
  BufWriter w(buf);
  eth.encode(w);
  EcpriHeader ec;
  ec.msg_type = EcpriMsgType::RtControl;
  ec.eaxc = eaxc;
  ec.seq_id = seq_id;
  // payload_size backpatched below (pcid+seqid = 4 bytes + app layer).
  const std::size_t ecpri_at = w.written();
  ec.encode(w);
  const std::size_t app_at = w.written();
  if (!msg.encode(w)) return 0;
  const std::size_t app_len = w.written() - app_at;
  w.patch_u16(ecpri_at + 2, std::uint16_t(4 + app_len));
  return w.ok() ? w.written() : 0;
}

std::size_t build_uplane_frame(std::span<std::uint8_t> buf,
                               const EthHeader& eth, const EaxcId& eaxc,
                               std::uint8_t seq_id, const UPlaneMsg& hdr,
                               std::span<const USectionData> sections,
                               const FhContext& ctx,
                               std::vector<USection>* out_sections) {
  BufWriter w(buf);
  eth.encode(w);
  EcpriHeader ec;
  ec.msg_type = EcpriMsgType::IqData;
  ec.eaxc = eaxc;
  ec.seq_id = seq_id;
  const std::size_t ecpri_at = w.written();
  ec.encode(w);
  const std::size_t app_at = w.written();
  // encode_uplane computes payload offsets as base + w.written(); `w`
  // already counts the Ethernet+eCPRI bytes, so offsets are absolute with
  // base 0.
  if (!encode_uplane(w, hdr, sections, ctx, /*base_offset=*/0, out_sections))
    return 0;
  const std::size_t app_len = w.written() - app_at;
  w.patch_u16(ecpri_at + 2, std::uint16_t(4 + app_len));
  return w.ok() ? w.written() : 0;
}

bool rewrite_eth_addrs(std::span<std::uint8_t> frame,
                       const std::optional<MacAddr>& new_dst,
                       const std::optional<MacAddr>& new_src) {
  if (frame.size() < 14) return false;
  if (new_dst) std::copy(new_dst->bytes.begin(), new_dst->bytes.end(),
                         frame.begin());
  if (new_src)
    std::copy(new_src->bytes.begin(), new_src->bytes.end(), frame.begin() + 6);
  return true;
}

std::size_t ecpri_offset(std::span<const std::uint8_t> frame) {
  if (frame.size() < 14) return 0;
  std::uint16_t et = std::uint16_t((frame[12] << 8) | frame[13]);
  if (et == kEtherTypeVlan) {
    if (frame.size() < 18) return 0;
    et = std::uint16_t((frame[16] << 8) | frame[17]);
    return et == kEtherTypeEcpri ? 18 : 0;
  }
  return et == kEtherTypeEcpri ? 14 : 0;
}

bool rewrite_eaxc(std::span<std::uint8_t> frame, const EaxcId& eaxc) {
  const std::size_t off = ecpri_offset(frame);
  if (off == 0 || frame.size() < off + 6) return false;
  const std::uint16_t v = eaxc.packed();
  frame[off + 4] = std::uint8_t(v >> 8);
  frame[off + 5] = std::uint8_t(v);
  return true;
}

}  // namespace rb
