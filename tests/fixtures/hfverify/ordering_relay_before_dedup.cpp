// Seeded violation: spans relayed on a weight-carrying dereference are
// absorbed before the duplicate check. A wire-duplicated frame would then
// merge its spans at the originator (or into the relay buffer) and add
// their sites to the query's involved set before the dedup guard could
// suppress it.
// HFVERIFY-RULE: ordering
// HFVERIFY-EXPECT: calls side effect absorb_spans() before the already_seen() dedup check

struct DerefRequest {
  std::uint64_t msg_seq = 0;
};

class Server {
 public:
  void handle_deref(int src, DerefRequest dr) {
    absorb_spans(dr.msg_seq);
    if (already_seen(src, dr.msg_seq)) {
      inc();
      return;
    }
    repay_weight(dr.msg_seq);
  }

  void absorb_spans(std::uint64_t spans);
  bool already_seen(int src, std::uint64_t seq);
  void repay_weight(std::uint64_t w);
  void inc();
};
