#include "src/ckpt/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "src/common/atomic_file.hpp"
#include "src/common/error.hpp"
#include "src/common/json.hpp"
#include "src/noc/network.hpp"

namespace dozz {

namespace {

constexpr char kMagic[8] = {'D', 'O', 'Z', 'Z', 'C', 'K', 'P', 'T'};
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;

void put_u32(std::vector<unsigned char>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFFu));
}

void put_u64(std::vector<unsigned char>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out->push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFFu));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

[[noreturn]] void fail_file(const std::string& path, const std::string& msg) {
  throw CheckpointError("checkpoint " + path + ": " + msg);
}

}  // namespace

void save_checkpoint_file(const Network& net, const std::string& path) {
  CkptWriter w;
  net.save_checkpoint(w);
  const auto& payload = w.bytes();

  std::vector<unsigned char> framed;
  framed.reserve(kHeaderSize + payload.size());
  framed.insert(framed.end(), kMagic, kMagic + 8);
  put_u32(&framed, kCkptFormatVersion);
  put_u64(&framed, payload.size());
  put_u32(&framed, ckpt_crc32(payload.data(), payload.size()));
  framed.insert(framed.end(), payload.begin(), payload.end());

  atomic_write_file(path, framed.data(), framed.size());
}

std::vector<unsigned char> read_checkpoint_payload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail_file(path, "cannot open file");
  std::vector<unsigned char> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) fail_file(path, "read error");

  if (bytes.size() < kHeaderSize)
    fail_file(path, "truncated header: file has " +
                        std::to_string(bytes.size()) + " bytes, header needs " +
                        std::to_string(kHeaderSize));
  if (std::memcmp(bytes.data(), kMagic, 8) != 0)
    fail_file(path, "bad magic: not a DozzNoC checkpoint");
  const std::uint32_t version = get_u32(bytes.data() + 8);
  if (version != kCkptFormatVersion)
    fail_file(path, "unsupported format version " + std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(kCkptFormatVersion) + ")");
  const std::uint64_t payload_size = get_u64(bytes.data() + 12);
  const std::uint32_t expected_crc = get_u32(bytes.data() + 20);
  if (bytes.size() - kHeaderSize != payload_size)
    fail_file(path, "truncated payload: header promises " +
                        std::to_string(payload_size) + " bytes, file holds " +
                        std::to_string(bytes.size() - kHeaderSize));
  const std::uint32_t actual_crc =
      ckpt_crc32(bytes.data() + kHeaderSize, payload_size);
  if (actual_crc != expected_crc)
    fail_file(path, "CRC mismatch: payload is corrupt");

  return std::vector<unsigned char>(bytes.begin() + kHeaderSize, bytes.end());
}

void restore_checkpoint_file(Network& net, const std::string& path) {
  const std::vector<unsigned char> payload = read_checkpoint_payload(path);
  CkptReader r(payload.data(), payload.size(), path);
  net.restore_checkpoint(r);
  r.expect_end();
}

// --- Sweep manifest --------------------------------------------------------

int SweepManifest::find(const std::string& key) const {
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (jobs[i].key == key) return static_cast<int>(i);
  return -1;
}

namespace {

/// Minimal strict parser over one flat JSON-object line: string and
/// unsigned-integer values only, which is all the manifest writer emits.
class LineParser {
 public:
  LineParser(const std::string& line, const std::string& path, int lineno)
      : line_(line), path_(path), lineno_(lineno) {}

  [[noreturn]] void fail(const std::string& msg) const {
    throw CheckpointError("manifest " + path_ + " line " +
                          std::to_string(lineno_) + ": " + msg +
                          " at column " + std::to_string(pos_ + 1));
  }

  void skip_ws() {
    while (pos_ < line_.size() &&
           (line_[pos_] == ' ' || line_[pos_] == '\t'))
      ++pos_;
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= line_.size() || line_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool peek(char c) {
    skip_ws();
    return pos_ < line_.size() && line_[pos_] == c;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= line_.size();
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= line_.size()) fail("unterminated string");
      const char c = line_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= line_.size()) fail("dangling escape");
      const char e = line_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > line_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = line_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape digit");
          }
          if (code > 0xFF) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default:
          fail(std::string("unknown escape '\\") + e + "'");
      }
    }
    return out;
  }

  std::uint64_t int_value() {
    skip_ws();
    if (pos_ >= line_.size() || line_[pos_] < '0' || line_[pos_] > '9')
      fail("expected integer");
    std::uint64_t v = 0;
    while (pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9')
      v = v * 10 + static_cast<std::uint64_t>(line_[pos_++] - '0');
    return v;
  }

 private:
  const std::string& line_;
  std::string path_;
  int lineno_;
  std::size_t pos_ = 0;
};

}  // namespace

void save_manifest_file(const SweepManifest& manifest,
                        const std::string& path) {
  std::ostringstream out;
  out << "{\"dozznoc_sweep_manifest\": 1, \"jobs\": " << manifest.jobs.size()
      << "}\n";
  for (const auto& job : manifest.jobs) {
    out << "{\"key\": \"" << json_escape(job.key) << "\", \"label\": \""
        << json_escape(job.label) << "\", \"status\": \""
        << json_escape(job.status) << "\", \"attempts\": " << job.attempts
        << ", \"error\": \"" << json_escape(job.error)
        << "\", \"checkpoint\": \"" << json_escape(job.checkpoint)
        << "\", \"report\": \"" << json_escape(job.report_json) << "\"}\n";
  }
  atomic_write_file(path, out.str());
}

SweepManifest load_manifest_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw CheckpointError("manifest " + path + ": cannot open file");

  SweepManifest manifest;
  std::string line;
  int lineno = 0;
  std::uint64_t promised_jobs = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (lineno == 1) {
      // Header line: {"dozznoc_sweep_manifest": 1, "jobs": N}
      LineParser h(line, path, lineno);
      h.expect('{');
      if (h.string_value() != "dozznoc_sweep_manifest")
        h.fail("not a DozzNoC sweep manifest");
      h.expect(':');
      if (h.int_value() != 1) h.fail("unsupported manifest version");
      h.expect(',');
      if (h.string_value() != "jobs") h.fail("expected \"jobs\" count");
      h.expect(':');
      promised_jobs = h.int_value();
      h.expect('}');
      if (!h.at_end()) h.fail("trailing content");
      continue;
    }
    LineParser p(line, path, lineno);
    p.expect('{');
    JobRecord job;
    bool first = true;
    while (!p.peek('}')) {
      if (!first) p.expect(',');
      first = false;
      const std::string key = p.string_value();
      p.expect(':');
      if (key == "attempts") {
        job.attempts = static_cast<int>(p.int_value());
      } else if (key == "key") {
        job.key = p.string_value();
      } else if (key == "label") {
        job.label = p.string_value();
      } else if (key == "status") {
        job.status = p.string_value();
      } else if (key == "error") {
        job.error = p.string_value();
      } else if (key == "checkpoint") {
        job.checkpoint = p.string_value();
      } else if (key == "report") {
        job.report_json = p.string_value();
      } else {
        p.fail("unknown field \"" + key + "\"");
      }
    }
    p.expect('}');
    if (!p.at_end()) p.fail("trailing content");
    if (job.key.empty())
      p.fail("job record is missing its \"key\"");
    if (job.status != "pending" && job.status != "running" &&
        job.status != "done" && job.status != "failed")
      p.fail("invalid status \"" + job.status + "\"");
    manifest.jobs.push_back(std::move(job));
  }
  if (in.bad())
    throw CheckpointError("manifest " + path + ": read error");
  if (lineno == 0)
    throw CheckpointError("manifest " + path + ": empty file");
  if (manifest.jobs.size() != promised_jobs)
    throw CheckpointError(
        "manifest " + path + ": header promises " +
        std::to_string(promised_jobs) + " jobs, file holds " +
        std::to_string(manifest.jobs.size()));
  return manifest;
}

}  // namespace dozz
