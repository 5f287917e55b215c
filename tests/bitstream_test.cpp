#include <gtest/gtest.h>

#include "attack/encode.hpp"
#include "core/bitstream.hpp"
#include "core/selection.hpp"
#include "synth/generator.hpp"
#include "util/strings.hpp"

namespace stt {
namespace {

Netlist locked_s27() {
  Netlist nl = embedded_netlist("s27");
  nl.replace_with_lut(nl.find("G9"));
  nl.replace_with_lut(nl.find("G12"));
  return nl;
}

TEST(Crc32, KnownVectors) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(Fingerprint, StableAndStructureSensitive) {
  const Netlist a = locked_s27();
  const Netlist b = locked_s27();
  EXPECT_EQ(netlist_fingerprint(a), netlist_fingerprint(b));
  // Contents do NOT change the fingerprint (foundry view == configured).
  EXPECT_EQ(netlist_fingerprint(a), netlist_fingerprint(foundry_view(a)));
  // Structure does.
  Netlist c = embedded_netlist("s27");
  c.replace_with_lut(c.find("G15"));
  EXPECT_NE(netlist_fingerprint(a), netlist_fingerprint(c));
}

TEST(Bitstream, RoundtripProgramsTheChip) {
  const Netlist hybrid = locked_s27();
  const std::string image = write_bitstream(hybrid);
  EXPECT_NE(image.find("STTB v1"), std::string::npos);
  EXPECT_NE(image.find("records 2"), std::string::npos);

  Netlist fabricated = foundry_view(hybrid);
  program_from_bitstream(fabricated, image);
  EXPECT_TRUE(comb_equivalent(fabricated, hybrid));
}

TEST(Bitstream, CorruptionIsDetected) {
  const std::string image = write_bitstream(locked_s27());
  // Flip one mask nibble inside the body.
  std::string tampered = image;
  const auto pos = tampered.find("lut G12");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos + 10] = tampered[pos + 10] == '1' ? '2' : '1';
  EXPECT_THROW(read_bitstream(tampered), BitstreamError);
}

TEST(Bitstream, WrongDesignIsRefused) {
  const Netlist hybrid = locked_s27();
  const std::string image = write_bitstream(hybrid);
  // A different hybrid structure must refuse this image.
  Netlist other = embedded_netlist("s27");
  other.replace_with_lut(other.find("G15"));
  Netlist fabricated = foundry_view(other);
  EXPECT_THROW(program_from_bitstream(fabricated, image), BitstreamError);
}

TEST(Bitstream, MalformedImagesRejected) {
  EXPECT_THROW(read_bitstream("garbage"), BitstreamError);
  EXPECT_THROW(read_bitstream("crc 00000000\n"), BitstreamError);
  const std::string image = write_bitstream(locked_s27());
  // Truncate the body: CRC must fail.
  EXPECT_THROW(read_bitstream(image.substr(4)), BitstreamError);
}

TEST(Bitstream, MalformedFieldsAreNamedErrors) {
  const std::string image = write_bitstream(locked_s27());
  const std::string body = image.substr(0, image.rfind("crc "));
  // A body edit with a valid CRC reaches the field parsers.
  const auto resealed = [](const std::string& b) {
    return b + strformat("crc %08x\n", crc32(b));
  };
  const auto replace = [&](const std::string& from, const std::string& to) {
    std::string b = body;
    const auto pos = b.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return resealed(b.replace(pos, from.size(), to));
  };
  const std::string lut = body.substr(body.find("lut G12"));
  const std::string lut_line = lut.substr(0, lut.find('\n'));
  const std::string head = lut_line.substr(0, lut_line.rfind(' ') + 1);
  const std::string mask = lut_line.substr(head.size());
  const std::string cases[] = {
      body + "crc zz\n",                       // CRC field
      body + "crc 1ffffffff\n",                // CRC wider than 32 bits
      replace(lut_line, head + "zz"),           // mask
      replace(lut_line, head + mask + "garbage"),
      replace(lut_line, head + "10000000000000000"),  // mask overflow
      replace(lut_line, "lut G12 x " + mask),   // fan-in
      replace("records 2", "records -2"),
      replace("records 2", "records 99999999999999999999"),
  };
  for (const std::string& bad : cases) {
    try {
      read_bitstream(bad);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const BitstreamError& e) {
      EXPECT_EQ(std::string(e.what()).find("sto"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(read_bitstream(resealed(body)), read_bitstream(image));
}

TEST(Bitstream, FullFlowArtifact) {
  const CircuitProfile profile{"bs", 8, 6, 6, 120, 8};
  const Netlist original = generate_circuit(profile, 3);
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions opt;
  opt.seed = 3;
  (void)selector.run(hybrid, SelectionAlgorithm::kParametric, opt);
  if (hybrid.stats().luts == 0) GTEST_SKIP();

  const std::string image = write_bitstream(hybrid);
  Netlist fabricated = foundry_view(hybrid);
  program_from_bitstream(fabricated, image);
  EXPECT_TRUE(comb_equivalent(fabricated, original));
}

}  // namespace
}  // namespace stt
