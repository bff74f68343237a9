#include "data/vtk_io.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "common/string_util.hpp"
#include "data/serialize.hpp"

namespace eth {

namespace {

constexpr const char* kMagicLine = "# eth DataFile v1";

using FilePtr = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

FilePtr open_file(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode), &std::fclose);
  require(f != nullptr, "cannot open '" + path + "'");
  return f;
}

std::string read_line(std::FILE* f, const std::string& path) {
  std::string line;
  int c;
  while ((c = std::fgetc(f)) != EOF && c != '\n') line.push_back(static_cast<char>(c));
  require(c != EOF || !line.empty(), "unexpected end of file in '" + path + "'");
  return line;
}

} // namespace

void write_dataset(const DataSet& ds, const std::string& path) {
  // The payload is written segment by segment from `ds`'s own arrays:
  // the same bytes serialize_dataset would flatten, without the copy.
  const WireMessage payload = wire_message_for_dataset(ds);
  FilePtr f = open_file(path, "wb");
  std::fprintf(f.get(), "%s\nkind %s\nbytes %zu\n", kMagicLine, to_string(ds.kind()),
               payload.total_bytes());
  for (const WireMessage::Segment& seg : payload.segments())
    require(std::fwrite(seg.bytes.data(), 1, seg.bytes.size(), f.get()) == seg.bytes.size(),
            "short write to '" + path + "'");
}

std::unique_ptr<DataSet> read_dataset(const std::string& path) {
  FilePtr f = open_file(path, "rb");
  require(read_line(f.get(), path) == kMagicLine,
          "'" + path + "' is not an eth DataFile");
  const std::string kind_line = read_line(f.get(), path);
  require(starts_with(kind_line, "kind "), "'" + path + "': missing kind line");
  const std::string bytes_line = read_line(f.get(), path);
  require(starts_with(bytes_line, "bytes "), "'" + path + "': missing bytes line");
  const Index payload_size = parse_index(bytes_line.substr(6), path);
  require(payload_size >= 0, "'" + path + "': negative payload size");
  // The header is untrusted: a payload larger than the rest of the file
  // is damage, and must not size an allocation.
  struct stat st {};
  const long header_end = std::ftell(f.get());
  require(fstat(fileno(f.get()), &st) == 0 && header_end >= 0 &&
              payload_size <= st.st_size - header_end,
          "'" + path + "': payload size exceeds the file");

  std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_size));
  require(std::fread(payload.data(), 1, payload.size(), f.get()) == payload.size(),
          "'" + path + "': truncated payload");
  auto ds = deserialize_dataset(payload);
  // Cross-check the header against the payload's own type tag.
  require(to_string(ds->kind()) == kind_line.substr(5),
          "'" + path + "': header kind disagrees with payload");
  return ds;
}

} // namespace eth
