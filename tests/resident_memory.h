// Residency probes for the sparse-image tests: how much anonymous memory the
// process has backed, read from the RssAnon line of /proc/self/status.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

namespace here::test {

// Anonymous resident bytes of this process, nullopt when the line is missing.
inline std::optional<std::uint64_t> rss_anon_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::stoull(line.substr(8)) * 1024;  // the line is in kB
    }
  }
  return std::nullopt;
}

// Why RssAnon cannot measure an image's backed pages here, or "" when it
// can. Under TSan it also counts the shadow memory TSan backs for what a
// test accesses (a sparse 256 MiB seed grows it by ~140 MB), and with
// transparent huge pages set to `always` a first write backs 2 MiB.
inline std::string residency_unmeasurable() {
  if (!rss_anon_bytes()) return "/proc/self/status has no RssAnon line";
#if defined(__SANITIZE_THREAD__)
  return "TSan's shadow memory dominates RssAnon";
#endif
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(thp, mode);
  if (mode.find("[always]") != std::string::npos) {
    return "transparent huge pages back 2 MiB per first write";
  }
  return "";
}

}  // namespace here::test
