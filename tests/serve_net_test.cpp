// Wire-protocol conformance tests for the socket front-end
// (src/serve/net): golden byte-level frame layout, torn/coalesced
// delivery, every typed error frame, and a malformed-frame corpus
// thrown at both the FrameDecoder and a LIVE SocketServer — the server
// must answer every abuse with a typed bad_request frame (closing only
// when byte sync is lost) and keep serving new connections.
//
// No model is trained here: the live-server tests run against an EMPTY
// registry, so every well-formed request is answered synchronously with
// a typed unknown_model error and no executor ever touches a
// pipeline. Two tests install an unfitted model and pump the service by
// hand: one lets the request's deadline expire before any model work,
// the other lets the model call throw.
// That keeps the whole suite cheap enough for the `sanitize` label
// (ASan/UBSan/TSan runs).
#include "serve/net/protocol.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "flowgen/generator.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"

namespace repro::serve::wire {
namespace {

std::uint32_t header_length(const std::vector<std::uint8_t>& frame) {
  return (static_cast<std::uint32_t>(frame[4]) << 24) |
         (static_cast<std::uint32_t>(frame[5]) << 16) |
         (static_cast<std::uint32_t>(frame[6]) << 8) |
         static_cast<std::uint32_t>(frame[7]);
}

/// One frame around an arbitrary payload (the corpus needs broken
/// payloads as well as well-formed ones).
std::vector<std::uint8_t> raw_frame(FrameType type,
                                    std::string_view payload) {
  std::vector<std::uint8_t> out;
  append_frame(out, type, payload);
  return out;
}

GenerateRequest sample_request() {
  GenerateRequest r;
  r.model = "default";
  r.class_id = 1;
  r.count = 2;
  r.seed = 42;
  r.sampler = diffusion::SamplerKind::kDdim;
  r.ddim_steps = 4;
  r.priority = Priority::kNormal;
  return r;
}

/// A toy model that was never fitted: sampling it throws.
std::shared_ptr<diffusion::TraceDiffusion> unfitted_model() {
  diffusion::PipelineConfig model_cfg;
  model_cfg.packets = 4;
  model_cfg.autoencoder.hidden_dim = 8;
  model_cfg.autoencoder.latent_dim = 2;
  model_cfg.unet.base_channels = 4;
  model_cfg.unet.temb_dim = 4;
  model_cfg.unet.groups = 2;
  return std::make_shared<diffusion::TraceDiffusion>(
      model_cfg, std::vector<std::string>{"a", "b"});
}

TEST(WireProtocol, RequestFrameGoldenBytes) {
  // The byte-level contract: 8-byte header (magic, version, type,
  // flags, big-endian length) followed by one canonical JSON document.
  // A change to any of these bytes is a protocol break.
  std::vector<std::uint8_t> out;
  append_request_frame(out, sample_request());

  const std::string payload =
      "{\"model\":\"default\",\"class_id\":1,\"count\":2,\"seed\":\"42\","
      "\"sampler\":\"ddim\",\"steps\":4,\"priority\":\"normal\"}";
  ASSERT_EQ(out.size(), kHeaderBytes + payload.size());
  EXPECT_EQ(out[0], kFrameMagic);
  EXPECT_EQ(out[1], kProtocolVersion);
  EXPECT_EQ(out[2], static_cast<std::uint8_t>(FrameType::kRequest));
  EXPECT_EQ(out[3], 0u);  // flags reserved
  EXPECT_EQ(header_length(out), payload.size());
  EXPECT_EQ(std::string(out.begin() + kHeaderBytes, out.end()), payload);
}

TEST(WireProtocol, RequestRoundTripPreservesEveryField) {
  GenerateRequest r;
  r.model = "m\"odel \\ with specials";
  r.class_id = 3;
  r.count = 7;
  r.seed = 18446744073709551615ULL;  // > 2^53: needs the string path
  r.sampler = diffusion::SamplerKind::kDdpm;
  r.ddim_steps = 11;
  r.priority = Priority::kHigh;

  std::vector<std::uint8_t> out;
  append_request_frame(out, r, 1500.0);
  FrameDecoder decoder;
  decoder.feed(out.data(), out.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  ASSERT_EQ(frame.type, FrameType::kRequest);

  std::string error;
  const auto decoded = parse_request_payload(frame.payload, error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->request.model, r.model);
  EXPECT_EQ(decoded->request.class_id, r.class_id);
  EXPECT_EQ(decoded->request.count, r.count);
  EXPECT_EQ(decoded->request.seed, r.seed);  // bit-exact above 2^53
  EXPECT_EQ(decoded->request.sampler, r.sampler);
  EXPECT_EQ(decoded->request.ddim_steps, r.ddim_steps);
  EXPECT_EQ(decoded->request.priority, r.priority);
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, 1500.0);
}

TEST(WireProtocol, DecoderHandlesTornAndCoalescedDelivery) {
  // TCP may deliver any byte split: one frame per byte, three frames in
  // one segment — the decoder must yield the identical frame sequence.
  std::vector<std::uint8_t> stream;
  for (std::uint64_t k = 0; k < 3; ++k) {
    GenerateRequest r = sample_request();
    r.seed = 100 + k;
    append_request_frame(stream, r);
  }

  FrameDecoder torn;
  std::vector<std::string> torn_payloads;
  for (const std::uint8_t byte : stream) {
    torn.feed(&byte, 1);
    Frame frame;
    while (torn.next(frame) == DecodeStatus::kFrame) {
      torn_payloads.push_back(frame.payload);
    }
    EXPECT_FALSE(torn.poisoned());
  }

  FrameDecoder coalesced;
  coalesced.feed(stream.data(), stream.size());
  std::vector<std::string> coalesced_payloads;
  Frame frame;
  while (coalesced.next(frame) == DecodeStatus::kFrame) {
    coalesced_payloads.push_back(frame.payload);
  }
  EXPECT_EQ(coalesced.next(frame), DecodeStatus::kNeedMore);
  EXPECT_EQ(coalesced.buffered(), 0u);

  ASSERT_EQ(torn_payloads.size(), 3u);
  EXPECT_EQ(torn_payloads, coalesced_payloads);
}

TEST(WireProtocol, TruncatedLengthPrefixIsNeedMoreNotError) {
  std::vector<std::uint8_t> whole;
  append_request_frame(whole, sample_request());
  for (std::size_t cut = 0; cut < kHeaderBytes; ++cut) {
    FrameDecoder decoder;
    decoder.feed(whole.data(), cut);
    Frame frame;
    EXPECT_EQ(decoder.next(frame), DecodeStatus::kNeedMore) << cut;
    EXPECT_FALSE(decoder.poisoned()) << cut;
  }
}

TEST(WireProtocol, FramingErrorsPoisonTheDecoderSticky) {
  struct Corrupt {
    std::size_t offset;
    std::uint8_t value;
    DecodeStatus expect;
    const char* name;
  };
  const Corrupt corpus[] = {
      {0, 0x00, DecodeStatus::kBadMagic, "bad_magic"},
      {1, 0x7F, DecodeStatus::kBadVersion, "bad_version"},
      {2, 0x09, DecodeStatus::kBadType, "bad_type"},
      {3, 0x01, DecodeStatus::kBadFlags, "bad_flags"},
  };
  for (const Corrupt& c : corpus) {
    std::vector<std::uint8_t> bytes;
    append_request_frame(bytes, sample_request());
    bytes[c.offset] = c.value;
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.next(frame), c.expect) << c.name;
    EXPECT_TRUE(decoder.poisoned()) << c.name;
    EXPECT_STREQ(to_string(c.expect), c.name);
    // Sticky: more input never un-poisons, the verdict never changes.
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_EQ(decoder.next(frame), c.expect) << c.name;
  }
}

TEST(WireProtocol, OversizedFrameRejectedFromHeaderAlone) {
  // Only the 8 header bytes arrive — the decoder must refuse without
  // waiting for (or buffering) a payload it will never accept.
  const std::vector<std::uint8_t> header =
      raw_frame(FrameType::kRequest, std::string());
  std::vector<std::uint8_t> bytes(header.begin(),
                                  header.begin() + kHeaderBytes);
  const std::uint32_t huge = 4097;
  bytes[4] = static_cast<std::uint8_t>(huge >> 24);
  bytes[5] = static_cast<std::uint8_t>(huge >> 16);
  bytes[6] = static_cast<std::uint8_t>(huge >> 8);
  bytes[7] = static_cast<std::uint8_t>(huge);
  FrameDecoder decoder(4096);
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kOversized);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(WireProtocol, ResponseRoundTripIsBitExact) {
  // Timestamps travel as the bit pattern of the double and packets as
  // the bytes of Packet::serialize(); the decoded reply must hash
  // identically to the in-process flows.
  Rng rng(123);
  Response response;
  response.request_id = 77;
  response.model_version = "v1";
  response.cache_hit = true;
  response.batch_flows = 5;
  for (int label = 0; label < 2; ++label) {
    net::Flow flow =
        flowgen::generate_flow(flowgen::App::kNetflix, 6, rng);
    flow.label = label;
    response.flows.push_back(std::move(flow));
  }
  // A timestamp whose decimal printing would not round-trip bits.
  response.flows[0].packets[0].timestamp = 0.1 + 0.2;

  std::vector<std::uint8_t> out;
  append_response_frame(out, response);
  FrameDecoder decoder;
  decoder.feed(out.data(), out.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResponse);

  const auto decoded = parse_response_payload(frame.payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->status, "ok");
  EXPECT_EQ(decoded->model_version, "v1");
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_EQ(decoded->batch_flows, 5u);
  ASSERT_EQ(decoded->flows.size(), 2u);
  EXPECT_EQ(hash_wire_flows(decoded->flows), hash_flows(response.flows));

  std::uint64_t ts_bits = 0;
  std::memcpy(&ts_bits, &response.flows[0].packets[0].timestamp,
              sizeof ts_bits);
  EXPECT_EQ(decoded->flows[0].packets[0].ts_bits, ts_bits);
}

TEST(WireProtocol, CancelledResponseRoundTripsReason) {
  Response response;
  response.status = ResponseStatus::kCancelled;
  response.cancel_reason = RejectReason::kDeadlineExpired;
  response.request_id = 9;

  std::vector<std::uint8_t> out;
  append_response_frame(out, response);
  FrameDecoder decoder;
  decoder.feed(out.data(), out.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  const auto decoded = parse_response_payload(frame.payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, "cancelled");
  EXPECT_EQ(decoded->reason, "deadline_expired");
  EXPECT_TRUE(decoded->flows.empty());
}

TEST(WireProtocol, EveryTypedErrorFrameRoundTrips) {
  // The full reject vocabulary crosses the wire with the in-process
  // to_string(RejectReason) spellings — queue_full over the socket is
  // indistinguishable from queue_full out of SubmitResult.
  const RejectReason reasons[] = {
      RejectReason::kQueueFull,    RejectReason::kDeadlineExpired,
      RejectReason::kUnknownModel, RejectReason::kUnknownClass,
      RejectReason::kBadRequest,   RejectReason::kShuttingDown,
  };
  for (const RejectReason reason : reasons) {
    std::vector<std::uint8_t> out;
    append_error_frame(out, 31, to_string(reason), "detail text");
    FrameDecoder decoder;
    decoder.feed(out.data(), out.size());
    Frame frame;
    ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
    ASSERT_EQ(frame.type, FrameType::kError);
    const auto decoded = parse_error_payload(frame.payload);
    ASSERT_TRUE(decoded.has_value()) << to_string(reason);
    EXPECT_EQ(decoded->request_id, 31u);
    EXPECT_EQ(decoded->error, to_string(reason));
    EXPECT_EQ(decoded->message, "detail text");
  }
}

TEST(WireProtocol, Utf8ValidatorRejectsTheClassicAbuses) {
  EXPECT_TRUE(valid_utf8("plain ascii"));
  EXPECT_TRUE(valid_utf8("\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80"));
  EXPECT_FALSE(valid_utf8("\xFF"));               // invalid lead
  EXPECT_FALSE(valid_utf8("\x80"));               // bare continuation
  EXPECT_FALSE(valid_utf8("\xC0\xAF"));           // overlong '/'
  EXPECT_FALSE(valid_utf8("\xED\xA0\x80"));       // UTF-16 surrogate
  EXPECT_FALSE(valid_utf8("\xF4\x90\x80\x80"));   // beyond U+10FFFF
  EXPECT_FALSE(valid_utf8("\xE2\x82"));           // truncated sequence
}

TEST(WireProtocol, MalformedRequestPayloadsAreTypedErrors) {
  const char* corpus[] = {
      "\xC7\xC7 not utf8",                    // invalid UTF-8
      "{\"model\": nope}",                    // malformed JSON
      "{\"model\":\"m\"} trailing junk",      // junk after the document
      "[1,2,3]",                              // not an object
      "{\"model\":\"\"}",                     // empty model
      "{\"model\":42}",                       // wrong model type
      "{\"count\":2.5}",                      // fractional count
      "{\"count\":1e300}",                    // absurd count
      "{\"seed\":\"12x4\"}",                  // non-decimal seed string
      "{\"sampler\":\"euler\"}",              // unknown sampler
      "{\"precision\":\"fp16\"}",             // unknown precision
      "{\"precision\":\"int8\"}",             // removed int8 route
      "{\"steps\":0}",                        // zero steps
      "{\"priority\":\"urgent\"}",            // unknown priority
      "{\"deadline_ms\":-5}",                 // negative deadline
  };
  for (const char* payload : corpus) {
    std::string error;
    EXPECT_FALSE(parse_request_payload(payload, error).has_value())
        << payload;
    EXPECT_FALSE(error.empty()) << payload;
  }
  // Unknown keys are ignored (forward compatibility), not errors.
  std::string error;
  const auto ok = parse_request_payload(
      "{\"model\":\"default\",\"future_field\":true}", error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(ok->request.model, "default");
  // The fast-path spelling parses to its enum, and an explicit fp32
  // route (the only one the model runs) is accepted.
  const auto fast = parse_request_payload(
      "{\"model\":\"default\",\"sampler\":\"distilled\","
      "\"precision\":\"fp32\"}",
      error);
  ASSERT_TRUE(fast.has_value()) << error;
  EXPECT_EQ(fast->request.sampler, diffusion::SamplerKind::kDistilled);
}

// --- Live-server conformance ----------------------------------------------

/// A real SocketServer over a 2-worker service and an EMPTY registry:
/// every well-formed request is rejected synchronously (unknown_model),
/// so the workers are never started — only the server's poll loop runs.
class SocketConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.batch.max_wait = 0.0;
    cfg.flightrec_force = true;
    service_ = std::make_unique<TraceService>(registry_, cfg);
    ServerConfig server_cfg;
    server_cfg.max_payload = 4096;  // small ceiling: cheap oversized tests
    server_ = std::make_unique<SocketServer>(*service_, server_cfg);
    server_->start();
  }

  void TearDown() override {
    server_->stop();
    server_.reset();
    service_.reset();
  }

  /// A well-formed request the empty registry rejects as unknown_model
  /// — the cheapest end-to-end proof a connection is still served.
  static void expect_conn_alive(BlockingClient& client) {
    const auto reply = client.call(sample_request(), -1.0, 10.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_FALSE(reply->ok());
    EXPECT_EQ(reply->error->error, "unknown_model");
    EXPECT_NE(reply->error->request_id, 0u);
  }

  ModelRegistry registry_;
  std::unique_ptr<TraceService> service_;
  std::unique_ptr<SocketServer> server_;
};

TEST_F(SocketConformanceTest, WellFormedRequestGetsTypedAdmissionError) {
  BlockingClient client(server_->port());
  expect_conn_alive(client);
  // The reject consumed nothing: the same connection serves again.
  expect_conn_alive(client);
}

TEST_F(SocketConformanceTest, MalformedPayloadsKeepTheConnectionOpen) {
  // Payload-level abuse (framing intact): each gets a typed bad_request
  // frame with a real trace id, and the SAME connection keeps working.
  const char* corpus[] = {
      "\xC7\xC7 not utf8",
      "{\"model\": nope}",
      "{\"model\":\"m\"} trailing junk",
      "[1,2,3]",
      "{\"sampler\":\"euler\"}",
      "{\"model\":\"default\",\"precision\":\"int8\"}",
  };
  BlockingClient client(server_->port());
  for (const char* payload : corpus) {
    const auto frame = raw_frame(FrameType::kRequest, payload);
    client.send_raw(frame.data(), frame.size());
    const auto reply = client.read_reply(10.0);
    ASSERT_TRUE(reply.has_value()) << payload;
    ASSERT_FALSE(reply->ok()) << payload;
    EXPECT_EQ(reply->error->error, "bad_request") << payload;
    EXPECT_NE(reply->error->request_id, 0u) << payload;
  }
  expect_conn_alive(client);
}

TEST_F(SocketConformanceTest, NonRequestFrameTypeIsBadRequest) {
  BlockingClient client(server_->port());
  const auto frame =
      raw_frame(FrameType::kResponse, "{\"request_id\":1,\"status\":\"ok\"}");
  client.send_raw(frame.data(), frame.size());
  const auto reply = client.read_reply(10.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->ok());
  EXPECT_EQ(reply->error->error, "bad_request");
  expect_conn_alive(client);
}

TEST_F(SocketConformanceTest, FramingErrorsAnswerOnceThenClose) {
  // Byte sync is lost: one typed error frame with request_id 0, then
  // the server closes — and keeps accepting NEW connections.
  struct Corrupt {
    std::size_t offset;
    std::uint8_t value;
    const char* name;
  };
  const Corrupt corpus[] = {
      {0, 0x00, "bad magic"},
      {1, 0x7F, "unknown version"},
      {2, 0x09, "bad type"},
      {3, 0x01, "bad flags"},
      {4, 0xFF, "oversized length"},  // 0xFF...: far above max_payload
  };
  for (const Corrupt& c : corpus) {
    BlockingClient client(server_->port());
    auto frame = raw_frame(FrameType::kRequest, "{}");
    frame[c.offset] = c.value;
    client.send_raw(frame.data(), frame.size());

    const auto reply = client.read_reply(10.0);
    ASSERT_TRUE(reply.has_value()) << c.name;
    ASSERT_FALSE(reply->ok()) << c.name;
    EXPECT_EQ(reply->error->error, "bad_request") << c.name;
    EXPECT_EQ(reply->error->request_id, 0u) << c.name;
    // Then EOF: the connection is gone.
    EXPECT_FALSE(client.read_reply(10.0).has_value()) << c.name;
    EXPECT_TRUE(client.eof()) << c.name;
  }
  BlockingClient fresh(server_->port());
  expect_conn_alive(fresh);
}

TEST_F(SocketConformanceTest, TornDeliveryDecodesAcrossSegments) {
  // A request frame split into single-byte writes must decode exactly
  // like one contiguous segment.
  std::vector<std::uint8_t> frame;
  append_request_frame(frame, sample_request());
  BlockingClient client(server_->port());
  for (const std::uint8_t byte : frame) {
    client.send_raw(&byte, 1);
  }
  const auto reply = client.read_reply(10.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->ok());
  EXPECT_EQ(reply->error->error, "unknown_model");
}

TEST_F(SocketConformanceTest, HalfCloseStillDeliversPendingReplies) {
  BlockingClient client(server_->port());
  client.send(sample_request());
  client.shutdown_writes();
  const auto reply = client.read_reply(10.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->ok());
  EXPECT_EQ(reply->error->error, "unknown_model");
  EXPECT_FALSE(client.read_reply(10.0).has_value());  // then EOF
  EXPECT_TRUE(client.eof());
}

TEST_F(SocketConformanceTest, AbruptDisconnectMidFrameNeverWedges) {
  // A peer that dies after half a frame must not crash, hang, or leak
  // the connection: once the client is gone the server's open count
  // returns to zero and new connections still work.
  {
    BlockingClient client(server_->port());
    std::vector<std::uint8_t> frame;
    append_request_frame(frame, sample_request());
    client.send_raw(frame.data(), frame.size() / 2);
  }  // destructor closes the socket with the frame torn
  BlockingClient fresh(server_->port());
  expect_conn_alive(fresh);
}

TEST_F(SocketConformanceTest, FailedModelCallAnswersModelError) {
  // Sampling an unfitted model throws; the service stores the exception in
  // the request's future. The server answers one typed model_error frame
  // carrying the exception's message and keeps serving, on the same
  // connection and on new ones.
  registry_.install("unfitted", unfitted_model(), "v1");
  GenerateRequest request = sample_request();
  request.model = "unfitted";
  BlockingClient client(server_->port());
  client.send(request);
  const auto waited_since = std::chrono::steady_clock::now();
  while (service_->pending() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now() - waited_since,
              std::chrono::seconds(10));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service_->pump(), 1u);
  const auto reply = client.read_reply(10.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->ok());
  EXPECT_EQ(reply->error->error, kModelError);
  EXPECT_NE(reply->error->request_id, 0u);
  EXPECT_NE(reply->error->message.find("fit"), std::string::npos)
      << reply->error->message;
  expect_conn_alive(client);
  BlockingClient fresh(server_->port());
  expect_conn_alive(fresh);
}

TEST_F(SocketConformanceTest, HealthReportsWorkersAndConnections) {
  // One health document: the service's worker count beside the socket
  // server's "connections" section, read with both executors running
  // and a client connected over TCP.
  service_->start();
  BlockingClient client(server_->port());
  expect_conn_alive(client);
  const auto doc = parse_json(service_->health_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("workers"), nullptr);
  EXPECT_EQ(doc->find("workers")->num_or(0), 2.0);
  const JsonValue* conns = doc->find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_EQ(conns->find("port")->num_or(0),
            static_cast<double>(server_->port()));
  EXPECT_GE(conns->find("opened")->num_or(0), 1.0);
  EXPECT_GE(conns->find("frames_in")->num_or(0), 1.0);
  EXPECT_GE(conns->find("frames_out")->num_or(0), 1.0);
}

TEST(SocketServerLoop, DeeplyNestedPayloadIsBadRequestNotACrash) {
  // A megabyte of '[' is a well-framed request whose JSON nests far
  // past kMaxJsonDepth: the reader refuses it without recursing that
  // deep, so the server answers bad_request and the connection lives.
  ModelRegistry registry;  // empty: a good request is unknown_model
  ServiceConfig cfg;
  cfg.batch.max_wait = 0.0;
  TraceService service(registry, cfg);
  ServerConfig server_cfg;
  server_cfg.max_payload = std::size_t{2} << 20;
  SocketServer server(service, server_cfg);
  server.start();

  BlockingClient client(server.port());
  const auto frame = raw_frame(FrameType::kRequest,
                               std::string(std::size_t{1} << 20, '['));
  client.send_raw(frame.data(), frame.size());
  const auto reply = client.read_reply(30.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->ok());
  EXPECT_EQ(reply->error->error, "bad_request");
  EXPECT_NE(reply->error->request_id, 0u);

  const auto next = client.call(sample_request(), -1.0, 10.0);
  ASSERT_TRUE(next.has_value());
  ASSERT_FALSE(next->ok());
  EXPECT_EQ(next->error->error, "unknown_model");
  server.stop();
}

TEST(SocketServerLoop, NonJsonNumberIsBadRequest) {
  // strtod would read 0x10 as 16 and serve the request; it is not a
  // JSON number, so the server answers bad_request and the connection
  // lives.
  ModelRegistry registry;  // empty: a well-formed request is unknown_model
  ServiceConfig cfg;
  cfg.batch.max_wait = 0.0;
  TraceService service(registry, cfg);
  SocketServer server(service, ServerConfig{});
  server.start();

  BlockingClient client(server.port());
  const auto frame = raw_frame(FrameType::kRequest, R"({"count":0x10})");
  client.send_raw(frame.data(), frame.size());
  const auto reply = client.read_reply(30.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->ok());
  EXPECT_EQ(reply->error->error, "bad_request");

  const auto next = client.call(sample_request(), -1.0, 10.0);
  ASSERT_TRUE(next.has_value());
  ASSERT_FALSE(next->ok());
  EXPECT_EQ(next->error->error, "unknown_model");
  server.stop();
}

TEST(SocketServerLoop, PendingReplyDoesNotSpinTheLoop) {
  // While a reply is pending the loop must sleep in poll() until the
  // service fulfils it, not spin: over a pending stretch of >= 50 ms it
  // takes about one turn per poll_wait, never thousands.
  ModelRegistry registry;
  // Never sampled: the request below expires before the service runs it.
  registry.install("default", unfitted_model(), "v1");
  ServiceConfig cfg;
  cfg.batch.max_wait = 0.0;
  TraceService service(registry, cfg);  // pumped by hand below
  ServerConfig server_cfg;
  SocketServer server(service, server_cfg);
  server.start();

  BlockingClient client(server.port());
  client.send(sample_request(), /*deadline_ms=*/1.0);
  const auto waited_since = std::chrono::steady_clock::now();
  while (service.pending() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now() - waited_since,
              std::chrono::seconds(10));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t turns_before = server.loop_turns();
  const auto pending_since = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(service.pump(), 1u);  // the expired request is cancelled
  const auto reply = client.read_reply(10.0);
  const double pending_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               pending_since)
                               .count();
  const std::uint64_t turns = server.loop_turns() - turns_before;
  server.stop();

  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->ok());
  EXPECT_EQ(reply->response->status, "cancelled");
  EXPECT_GE(pending_s, 0.05);
  EXPECT_LE(static_cast<double>(turns),
            2.0 * pending_s / server_cfg.poll_wait + 4.0)
      << turns << " loop turns in " << pending_s << " s";
  EXPECT_NE(service.health_json().find("\"loop_turns\""), std::string::npos);
}

}  // namespace
}  // namespace repro::serve::wire
