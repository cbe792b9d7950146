/**
 * @file
 * Tests for OpenQASM export.
 */

#include <gtest/gtest.h>

#include "circuit/hardware_efficient.h"
#include "circuit/qasm_export.h"

namespace treevqa {
namespace {

TEST(Qasm, HeaderAndRegister)
{
    Circuit c(3);
    c.h(0);
    const std::string qasm = toQasm(c, {});
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
}

TEST(Qasm, BindsParameters)
{
    Circuit c(1);
    const int p = c.addParam();
    c.ryParam(0, p, 2.0);
    const std::string qasm = toQasm(c, {0.25});
    EXPECT_NE(qasm.find("ry(0.5) q[0];"), std::string::npos);
}

TEST(Qasm, RzzExpandsToCxRzCx)
{
    Circuit c(2);
    c.rzz(0, 1, 0.7);
    const std::string qasm = toQasm(c, {});
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("rz(0.69999999999999996) q[1];"),
              std::string::npos);
    // Two CX total.
    std::size_t count = 0, pos = 0;
    while ((pos = qasm.find("cx ", pos)) != std::string::npos) {
        ++count;
        pos += 3;
    }
    EXPECT_EQ(count, 2u);
}

TEST(Qasm, AnsatzEmitsInitialBits)
{
    const Ansatz a = makeHardwareEfficientAnsatz(3, 1, 0b101);
    const std::string qasm =
        toQasm(a, std::vector<double>(a.numParams(), 0.0));
    EXPECT_NE(qasm.find("x q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("x q[2];"), std::string::npos);
    EXPECT_EQ(qasm.find("x q[1];"), std::string::npos);
}

TEST(Qasm, AllGateKindsRender)
{
    Circuit c(2);
    c.h(0);
    c.x(1);
    c.s(0);
    c.sdg(1);
    c.cx(0, 1);
    c.cz(0, 1);
    c.rx(0, 0.1);
    c.ry(1, 0.2);
    c.rz(0, 0.3);
    c.rzz(0, 1, 0.4);
    const std::string qasm = toQasm(c, {});
    for (const char *token :
         {"h ", "x ", "s ", "sdg ", "cx ", "cz ", "rx(", "ry(",
          "rz("})
        EXPECT_NE(qasm.find(token), std::string::npos) << token;
}

} // namespace
} // namespace treevqa
