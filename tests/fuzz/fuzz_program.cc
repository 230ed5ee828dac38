// libFuzzer harness for the .twp program text reader (text_format.h);
// covers the line tokenizer, the rule grammar, and — through guards and
// selectors — the formula parser and program validation in Build().
// Every program that parses also runs on a small fixed tree through the
// interpreter and the configuration-graph evaluator; differing verdicts
// are a bug, so trap.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "tests/fuzz/program_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string_view source(reinterpret_cast<const char*>(data), size);
  if (!treewalk::RunProgramFuzzInput(source).agrees) __builtin_trap();
  return 0;
}
