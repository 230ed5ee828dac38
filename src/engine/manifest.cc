#include "src/engine/manifest.h"

#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/tree/snapshot.h"

namespace treewalk {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void FnvMix(std::uint64_t& h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  // Field separator that no path or file content can forge (paths come
  // from whitespace-split manifest fields, so they contain no '\n').
  h ^= 0xff;
  h *= kFnvPrime;
}

bool ReadFileDefault(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// The bytes a job id hashes for the input at `path`: a snapshot's
/// framing when it validates — its header and section table hold t's
/// content hash and every section's CRC, so they name the whole file —
/// otherwise the whole file.
bool ReadJobInput(const std::string& path, std::string& out) {
  if (path.ends_with(".twsnap")) {
    Result<std::string> framing = ReadSnapshotFraming(path);
    if (framing.ok()) {
      out = std::move(framing).value();
      return true;
    }
  }
  return ReadFileDefault(path, out);
}

}  // namespace

std::uint64_t ManifestJobId(const std::string& program_path,
                            const std::string& tree_path,
                            const std::string* program_content,
                            const std::string* tree_content) {
  std::uint64_t h = kFnvOffset;
  FnvMix(h, program_path);
  FnvMix(h, tree_path);
  FnvMix(h, program_content != nullptr ? *program_content : "<unreadable>");
  FnvMix(h, tree_content != nullptr ? *tree_content : "<unreadable>");
  // 0 is the "unjournaled job" sentinel in BatchJob; dodge it.
  return h == 0 ? 1 : h;
}

Result<Manifest> ParseManifest(const std::string& text,
                               const ManifestFileReader& reader) {
  Manifest manifest;
  // Contents are read once per distinct path; a second<->first map
  // catches duplicate (program, tree) pairs with both line numbers.
  std::map<std::string, std::pair<bool, std::string>> contents;
  auto content_of = [&](const std::string& path) -> const std::string* {
    auto it = contents.find(path);
    if (it == contents.end()) {
      std::string data;
      bool ok = reader(path, data);
      it = contents.emplace(path, std::make_pair(ok, std::move(data))).first;
    }
    return it->second.first ? &it->second.second : nullptr;
  };
  std::map<std::pair<std::string, std::string>, int> first_line;

  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::string program_path, tree_path, extra;
    if (!(fields >> program_path) || program_path[0] == '#') continue;
    if (!(fields >> tree_path) || fields >> extra) {
      return InvalidArgument("manifest line " + std::to_string(line_number) +
                             ": expected '<program.twp> <tree>'");
    }
    auto [it, inserted] = first_line.emplace(
        std::make_pair(program_path, tree_path), line_number);
    if (!inserted) {
      return InvalidArgument(
          "manifest lines " + std::to_string(it->second) + " and " +
          std::to_string(line_number) + " both name '" + program_path + " " +
          tree_path + "' — duplicate job ids cannot key a journal");
    }
    ManifestEntry entry;
    entry.program_path = program_path;
    entry.tree_path = tree_path;
    entry.line_number = line_number;
    entry.job_id = ManifestJobId(program_path, tree_path,
                                 content_of(program_path),
                                 content_of(tree_path));
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

Result<Manifest> LoadManifestFile(const std::string& path) {
  std::string text;
  if (!ReadFileDefault(path, text)) {
    return NotFound("cannot read manifest '" + path + "'");
  }
  return ParseManifest(text, ReadJobInput);
}

}  // namespace treewalk
