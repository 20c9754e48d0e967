// Golden wire bytes: the exact text of every rat.svc.v1 response
// renderer, the canonical fingerprint text (and with it every cache key
// and shard choice), the router's forward line, and rat.batch.v1 JSON
// and CSV over tests/fixtures/worksheets.
//
// The service and router identity suites compare two renderings made by
// the same build, so they cannot notice a change to the rendering
// itself. These literals can: any byte that moves fails here. Paths
// under the fixture directory are rewritten to "<fixtures>" so the
// literals do not depend on where the tree is checked out.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>

#include "core/throughput.hpp"
#include "io/batch.hpp"
#include "io/json.hpp"
#include "io/loader.hpp"
#include "svc/fingerprint.hpp"
#include "svc/protocol.hpp"
#include "svc/router.hpp"
#include "svc/service.hpp"

namespace rat::svc {
namespace {

const std::string kFixtureDir = RAT_FIXTURE_DIR;

/// @p s with every occurrence of the fixture directory as "<fixtures>".
std::string portable(std::string s) {
  for (std::size_t at; (at = s.find(kFixtureDir)) != std::string::npos;)
    s.replace(at, kFixtureDir.size(), "<fixtures>");
  return s;
}

std::string fixture_path(const std::string& name) {
  return kFixtureDir + "/" + name + ".rat";
}

core::RatInputs fixture(const std::string& name) {
  return io::load_worksheet(fixture_path(name));
}

std::string evaluate(const std::string& id, const core::RatInputs& in) {
  return evaluate_response(id, fingerprint(in), in, core::predict_all(in));
}

const char* const kCanonicalPdf1d =
    "rat.fp.v1\n"
    "name=1-D PDF estimation\n"
    "elements_in=512\n"
    "elements_out=1\n"
    "bytes_per_element=4\n"
    "ideal_bw_bytes_per_sec=1000000000\n"
    "alpha_write=0.37\n"
    "alpha_read=0.16\n"
    "ops_per_element=768\n"
    "throughput_ops_per_cycle=20\n"
    "fclock_hz=75000000,100000000,150000000\n"
    "tsoft_sec=0.578\n"
    "n_iterations=400\n";

const char* const kEvaluatePdf1d =
    "{\"schema\":\"rat.svc.v1\",\"id\":\"golden-pdf1d\",\"status\":\"ok\","
    "\"op\":\"evaluate\",\"fingerprint\":\"a7a9557968d42eb8\","
    "\"inputs\":{\"name\":\"1-D PDF estimation\",\"elements_in\":512,"
    "\"elements_out\":1,\"bytes_per_element\":4,\"ideal_bw_bytes_per_sec\":1000"
    "000000,\"alpha_write\":0.37,\"alpha_read\":0.16,\"ops_per_element\":768,"
    "\"throughput_ops_per_cycle\":20,\"fclock_hz\":[75000000,"
    "100000000,150000000],\"tsoft_sec\":0.578,\"n_iterations\":400},"
    "\"predictions\":[{\"fclock_hz\":75000000,\"t_write_sec\":5.535135135135135"
    "5e-06,\"t_read_sec\":2.5e-08,\"t_comm_sec\":5.560135135135135e-06,"
    "\"t_comp_sec\":0.000262144,\"t_rc_sb_sec\":0.10708165405405405,"
    "\"t_rc_db_sec\":0.10485760000000001,\"speedup_sb\":5.397750017087238,"
    "\"speedup_db\":5.512237548828124,\"util_comp_sb\":0.979230297909562,"
    "\"util_comm_sb\":0.02076970209043808,\"util_comp_db\":1,"
    "\"util_comm_db\":0.02121023229650549},{\"fclock_hz\":100000000,"
    "\"t_write_sec\":5.5351351351351355e-06,\"t_read_sec\":2.5e-08,"
    "\"t_comm_sec\":5.560135135135135e-06,\"t_comp_sec\":0.000196608,"
    "\"t_rc_sb_sec\":0.08086725405405405,\"t_rc_db_sec\":0.0786432,"
    "\"speedup_sb\":7.147516096115342,\"speedup_db\":7.349650065104166,"
    "\"util_comp_sb\":0.9724974703287509,\"util_comm_sb\":0.027502529671249016,"
    "\"util_comp_db\":1,\"util_comm_db\":0.028280309728673986},"
    "{\"fclock_hz\":150000000,\"t_write_sec\":5.5351351351351355e-06,"
    "\"t_read_sec\":2.5e-08,\"t_comm_sec\":5.560135135135135e-06,"
    "\"t_comp_sec\":0.000131072,\"t_rc_sb_sec\":0.05465285405405406,"
    "\"t_rc_db_sec\":0.052428800000000005,\"speedup_sb\":10.575842927220831,"
    "\"speedup_db\":11.024475097656248,\"util_comp_sb\":0.9593058021845599,"
    "\"util_comm_sb\":0.04069419781544011,\"util_comp_db\":1,"
    "\"util_comm_db\":0.04242046459301098}]}";

const char* const kCanonicalPdf2d =
    "rat.fp.v1\n"
    "name=2-D PDF estimation\n"
    "elements_in=1024\n"
    "elements_out=65536\n"
    "bytes_per_element=4\n"
    "ideal_bw_bytes_per_sec=1000000000\n"
    "alpha_write=0.37\n"
    "alpha_read=0.16\n"
    "ops_per_element=393216\n"
    "throughput_ops_per_cycle=48\n"
    "fclock_hz=75000000,100000000,150000000\n"
    "tsoft_sec=158.8\n"
    "n_iterations=400\n";

const char* const kEvaluatePdf2d =
    "{\"schema\":\"rat.svc.v1\",\"id\":\"golden-pdf2d\",\"status\":\"ok\","
    "\"op\":\"evaluate\",\"fingerprint\":\"2cc4a7e5b53e02db\","
    "\"inputs\":{\"name\":\"2-D PDF estimation\",\"elements_in\":1024,"
    "\"elements_out\":65536,\"bytes_per_element\":4,\"ideal_bw_bytes_per_sec\":"
    "1000000000,\"alpha_write\":0.37,\"alpha_read\":0.16,"
    "\"ops_per_element\":393216,\"throughput_ops_per_cycle\":48,"
    "\"fclock_hz\":[75000000,100000000,150000000],\"tsoft_sec\":158.8,"
    "\"n_iterations\":400},\"predictions\":[{\"fclock_hz\":75000000,"
    "\"t_write_sec\":1.1070270270270271e-05,\"t_read_sec\":0.0016384,"
    "\"t_comm_sec\":0.0016494702702702702,\"t_comp_sec\":0.11184810666666667,"
    "\"t_rc_sb_sec\":45.39903077477477,\"t_rc_db_sec\":44.73924266666667,"
    "\"speedup_sb\":3.4978720314054508,\"speedup_db\":3.5494565963745117,"
    "\"util_comp_sb\":0.9854669120276747,\"util_comm_sb\":0.01453308797232536,"
    "\"util_comp_db\":1,\"util_comm_db\":0.014747413429054054},"
    "{\"fclock_hz\":100000000,\"t_write_sec\":1.1070270270270271e-05,"
    "\"t_read_sec\":0.0016384,\"t_comm_sec\":0.0016494702702702702,"
    "\"t_comp_sec\":0.08388608,\"t_rc_sb_sec\":34.21422010810811,"
    "\"t_rc_db_sec\":33.554432,\"speedup_sb\":4.641345016727927,"
    "\"speedup_db\":4.7326087951660165,\"util_comp_sb\":0.9807159682137033,"
    "\"util_comm_sb\":0.01928403178629669,\"util_comp_db\":1,"
    "\"util_comm_db\":0.019663217905405404},{\"fclock_hz\":150000000,"
    "\"t_write_sec\":1.1070270270270271e-05,\"t_read_sec\":0.0016384,"
    "\"t_comm_sec\":0.0016494702702702702,\"t_comp_sec\":0.055924053333333335,"
    "\"t_rc_sb_sec\":23.02940944144144,\"t_rc_db_sec\":22.369621333333335,"
    "\"speedup_sb\":6.895530708409712,\"speedup_db\":7.098913192749023,"
    "\"util_comp_sb\":0.9713501942033815,\"util_comm_sb\":0.028649805796618424,"
    "\"util_comp_db\":1,\"util_comm_db\":0.029494826858108107}]}";

const char* const kCanonicalMd =
    "rat.fp.v1\n"
    "name=Molecular dynamics\n"
    "elements_in=16384\n"
    "elements_out=16384\n"
    "bytes_per_element=36\n"
    "ideal_bw_bytes_per_sec=500000000\n"
    "alpha_write=0.9\n"
    "alpha_read=0.9\n"
    "ops_per_element=164000\n"
    "throughput_ops_per_cycle=50\n"
    "fclock_hz=75000000,100000000,150000000\n"
    "tsoft_sec=5.78\n"
    "n_iterations=1\n";

const char* const kEvaluateMd =
    "{\"schema\":\"rat.svc.v1\",\"id\":\"golden-md\",\"status\":\"ok\","
    "\"op\":\"evaluate\",\"fingerprint\":\"6b25cc7bc2670696\","
    "\"inputs\":{\"name\":\"Molecular dynamics\",\"elements_in\":16384,"
    "\"elements_out\":16384,\"bytes_per_element\":36,\"ideal_bw_bytes_per_sec\""
    ":500000000,\"alpha_write\":0.9,\"alpha_read\":0.9,\"ops_per_element\":1640"
    "00,\"throughput_ops_per_cycle\":50,\"fclock_hz\":[75000000,"
    "100000000,150000000],\"tsoft_sec\":5.78,\"n_iterations\":1},"
    "\"predictions\":[{\"fclock_hz\":75000000,\"t_write_sec\":0.00131072,"
    "\"t_read_sec\":0.00131072,\"t_comm_sec\":0.00262144,"
    "\"t_comp_sec\":0.7165269333333333,\"t_rc_sb_sec\":0.7191483733333333,"
    "\"t_rc_db_sec\":0.7165269333333333,\"speedup_sb\":8.037284396833233,"
    "\"speedup_db\":8.066689095846037,\"util_comp_sb\":0.9963547995139733,"
    "\"util_comm_sb\":0.003645200486026732,\"util_comp_db\":1,"
    "\"util_comm_db\":0.003658536585365854},{\"fclock_hz\":100000000,"
    "\"t_write_sec\":0.00131072,\"t_read_sec\":0.00131072,"
    "\"t_comm_sec\":0.00262144,\"t_comp_sec\":0.5373952,\"t_rc_sb_sec\":0.54001"
    "66399999999,\"t_rc_db_sec\":0.5373952,\"speedup_sb\":10.703373881219662,"
    "\"speedup_db\":10.75558546112805,\"util_comp_sb\":0.9951456310679612,"
    "\"util_comm_sb\":0.004854368932038835,\"util_comp_db\":1,"
    "\"util_comm_db\":0.004878048780487806},{\"fclock_hz\":150000000,"
    "\"t_write_sec\":0.00131072,\"t_read_sec\":0.00131072,"
    "\"t_comm_sec\":0.00262144,\"t_comp_sec\":0.35826346666666664,"
    "\"t_rc_sb_sec\":0.3608849066666666,\"t_rc_db_sec\":0.35826346666666664,"
    "\"speedup_sb\":16.016186582551455,\"speedup_db\":16.133378191692074,"
    "\"util_comp_sb\":0.9927360774818402,\"util_comm_sb\":0.0072639225181598075"
    ",\"util_comp_db\":1,\"util_comm_db\":0.007317073170731708}]}";

const char* const kEvaluateNullId =
    "{\"schema\":\"rat.svc.v1\",\"id\":null,\"status\":\"ok\","
    "\"op\":\"evaluate\",\"fingerprint\":\"a7a9557968d42eb8\","
    "\"inputs\":{\"name\":\"1-D PDF estimation\",\"elements_in\":512,"
    "\"elements_out\":1,\"bytes_per_element\":4,\"ideal_bw_bytes_per_sec\":1000"
    "000000,\"alpha_write\":0.37,\"alpha_read\":0.16,\"ops_per_element\":768,"
    "\"throughput_ops_per_cycle\":20,\"fclock_hz\":[75000000,"
    "100000000,150000000],\"tsoft_sec\":0.578,\"n_iterations\":400},"
    "\"predictions\":[{\"fclock_hz\":75000000,\"t_write_sec\":5.535135135135135"
    "5e-06,\"t_read_sec\":2.5e-08,\"t_comm_sec\":5.560135135135135e-06,"
    "\"t_comp_sec\":0.000262144,\"t_rc_sb_sec\":0.10708165405405405,"
    "\"t_rc_db_sec\":0.10485760000000001,\"speedup_sb\":5.397750017087238,"
    "\"speedup_db\":5.512237548828124,\"util_comp_sb\":0.979230297909562,"
    "\"util_comm_sb\":0.02076970209043808,\"util_comp_db\":1,"
    "\"util_comm_db\":0.02121023229650549},{\"fclock_hz\":100000000,"
    "\"t_write_sec\":5.5351351351351355e-06,\"t_read_sec\":2.5e-08,"
    "\"t_comm_sec\":5.560135135135135e-06,\"t_comp_sec\":0.000196608,"
    "\"t_rc_sb_sec\":0.08086725405405405,\"t_rc_db_sec\":0.0786432,"
    "\"speedup_sb\":7.147516096115342,\"speedup_db\":7.349650065104166,"
    "\"util_comp_sb\":0.9724974703287509,\"util_comm_sb\":0.027502529671249016,"
    "\"util_comp_db\":1,\"util_comm_db\":0.028280309728673986},"
    "{\"fclock_hz\":150000000,\"t_write_sec\":5.5351351351351355e-06,"
    "\"t_read_sec\":2.5e-08,\"t_comm_sec\":5.560135135135135e-06,"
    "\"t_comp_sec\":0.000131072,\"t_rc_sb_sec\":0.05465285405405406,"
    "\"t_rc_db_sec\":0.052428800000000005,\"speedup_sb\":10.575842927220831,"
    "\"speedup_db\":11.024475097656248,\"util_comp_sb\":0.9593058021845599,"
    "\"util_comm_sb\":0.04069419781544011,\"util_comp_db\":1,"
    "\"util_comm_db\":0.04242046459301098}]}";

const char* const kDiagnosticBroken =
    "{\"schema\":\"rat.svc.v1\",\"id\":\"b1\",\"status\":\"error\","
    "\"error\":{\"code\":\"E_BAD_LIST\",\"message\":\"not a number: 'oops'\","
    "\"diagnostic\":{\"file\":\"<fixtures>/broken.rat\",\"line\":3,"
    "\"column\":18,\"code\":\"E_BAD_LIST\",\"key\":\"fclock_hz\","
    "\"message\":\"not a number: 'oops'\",\"rendered\":\"<fixtures>/broken.rat:"
    "3:18: E_BAD_LIST: RatInputs::parse: fclock_hz: not a number: 'oops'\"}}}";

const char* const kBatchJson =
    "{\"schema\":\"rat.batch.v1\",\"n_worksheets\":4,\"n_ok\":3,"
    "\"n_failed\":1,\"worksheets\":[{\"file\":\"<fixtures>/broken.rat\","
    "\"status\":\"error\",\"diagnostic\":{\"file\":\"<fixtures>/broken.rat\","
    "\"line\":3,\"column\":18,\"code\":\"E_BAD_LIST\",\"key\":\"fclock_hz\","
    "\"message\":\"not a number: 'oops'\",\"rendered\":\"<fixtures>/broken.rat:"
    "3:18: E_BAD_LIST: RatInputs::parse: fclock_hz: not a number: 'oops'\"}},"
    "{\"file\":\"<fixtures>/md.rat\",\"status\":\"ok\",\"inputs\":{\"name\":\"M"
    "olecular dynamics\",\"elements_in\":16384,\"elements_out\":16384,"
    "\"bytes_per_element\":36,\"ideal_bw_bytes_per_sec\":500000000,"
    "\"alpha_write\":0.9,\"alpha_read\":0.9,\"ops_per_element\":164000,"
    "\"throughput_ops_per_cycle\":50,\"fclock_hz\":[75000000,"
    "100000000,150000000],\"tsoft_sec\":5.78,\"n_iterations\":1},"
    "\"predictions\":[{\"fclock_hz\":75000000,\"t_write_sec\":0.00131072,"
    "\"t_read_sec\":0.00131072,\"t_comm_sec\":0.00262144,"
    "\"t_comp_sec\":0.7165269333333333,\"t_rc_sb_sec\":0.7191483733333333,"
    "\"t_rc_db_sec\":0.7165269333333333,\"speedup_sb\":8.037284396833233,"
    "\"speedup_db\":8.066689095846037,\"util_comp_sb\":0.9963547995139733,"
    "\"util_comm_sb\":0.003645200486026732,\"util_comp_db\":1,"
    "\"util_comm_db\":0.003658536585365854},{\"fclock_hz\":100000000,"
    "\"t_write_sec\":0.00131072,\"t_read_sec\":0.00131072,"
    "\"t_comm_sec\":0.00262144,\"t_comp_sec\":0.5373952,\"t_rc_sb_sec\":0.54001"
    "66399999999,\"t_rc_db_sec\":0.5373952,\"speedup_sb\":10.703373881219662,"
    "\"speedup_db\":10.75558546112805,\"util_comp_sb\":0.9951456310679612,"
    "\"util_comm_sb\":0.004854368932038835,\"util_comp_db\":1,"
    "\"util_comm_db\":0.004878048780487806},{\"fclock_hz\":150000000,"
    "\"t_write_sec\":0.00131072,\"t_read_sec\":0.00131072,"
    "\"t_comm_sec\":0.00262144,\"t_comp_sec\":0.35826346666666664,"
    "\"t_rc_sb_sec\":0.3608849066666666,\"t_rc_db_sec\":0.35826346666666664,"
    "\"speedup_sb\":16.016186582551455,\"speedup_db\":16.133378191692074,"
    "\"util_comp_sb\":0.9927360774818402,\"util_comm_sb\":0.0072639225181598075"
    ",\"util_comp_db\":1,\"util_comm_db\":0.007317073170731708}]},"
    "{\"file\":\"<fixtures>/pdf1d.rat\",\"status\":\"ok\","
    "\"inputs\":{\"name\":\"1-D PDF estimation\",\"elements_in\":512,"
    "\"elements_out\":1,\"bytes_per_element\":4,\"ideal_bw_bytes_per_sec\":1000"
    "000000,\"alpha_write\":0.37,\"alpha_read\":0.16,\"ops_per_element\":768,"
    "\"throughput_ops_per_cycle\":20,\"fclock_hz\":[75000000,"
    "100000000,150000000],\"tsoft_sec\":0.578,\"n_iterations\":400},"
    "\"predictions\":[{\"fclock_hz\":75000000,\"t_write_sec\":5.535135135135135"
    "5e-06,\"t_read_sec\":2.5e-08,\"t_comm_sec\":5.560135135135135e-06,"
    "\"t_comp_sec\":0.000262144,\"t_rc_sb_sec\":0.10708165405405405,"
    "\"t_rc_db_sec\":0.10485760000000001,\"speedup_sb\":5.397750017087238,"
    "\"speedup_db\":5.512237548828124,\"util_comp_sb\":0.979230297909562,"
    "\"util_comm_sb\":0.02076970209043808,\"util_comp_db\":1,"
    "\"util_comm_db\":0.02121023229650549},{\"fclock_hz\":100000000,"
    "\"t_write_sec\":5.5351351351351355e-06,\"t_read_sec\":2.5e-08,"
    "\"t_comm_sec\":5.560135135135135e-06,\"t_comp_sec\":0.000196608,"
    "\"t_rc_sb_sec\":0.08086725405405405,\"t_rc_db_sec\":0.0786432,"
    "\"speedup_sb\":7.147516096115342,\"speedup_db\":7.349650065104166,"
    "\"util_comp_sb\":0.9724974703287509,\"util_comm_sb\":0.027502529671249016,"
    "\"util_comp_db\":1,\"util_comm_db\":0.028280309728673986},"
    "{\"fclock_hz\":150000000,\"t_write_sec\":5.5351351351351355e-06,"
    "\"t_read_sec\":2.5e-08,\"t_comm_sec\":5.560135135135135e-06,"
    "\"t_comp_sec\":0.000131072,\"t_rc_sb_sec\":0.05465285405405406,"
    "\"t_rc_db_sec\":0.052428800000000005,\"speedup_sb\":10.575842927220831,"
    "\"speedup_db\":11.024475097656248,\"util_comp_sb\":0.9593058021845599,"
    "\"util_comm_sb\":0.04069419781544011,\"util_comp_db\":1,"
    "\"util_comm_db\":0.04242046459301098}]},{\"file\":\"<fixtures>/pdf2d.rat\""
    ",\"status\":\"ok\",\"inputs\":{\"name\":\"2-D PDF estimation\","
    "\"elements_in\":1024,\"elements_out\":65536,\"bytes_per_element\":4,"
    "\"ideal_bw_bytes_per_sec\":1000000000,\"alpha_write\":0.37,"
    "\"alpha_read\":0.16,\"ops_per_element\":393216,\"throughput_ops_per_cycle\""
    ":48,\"fclock_hz\":[75000000,100000000,150000000],\"tsoft_sec\":158.8,"
    "\"n_iterations\":400},\"predictions\":[{\"fclock_hz\":75000000,"
    "\"t_write_sec\":1.1070270270270271e-05,\"t_read_sec\":0.0016384,"
    "\"t_comm_sec\":0.0016494702702702702,\"t_comp_sec\":0.11184810666666667,"
    "\"t_rc_sb_sec\":45.39903077477477,\"t_rc_db_sec\":44.73924266666667,"
    "\"speedup_sb\":3.4978720314054508,\"speedup_db\":3.5494565963745117,"
    "\"util_comp_sb\":0.9854669120276747,\"util_comm_sb\":0.01453308797232536,"
    "\"util_comp_db\":1,\"util_comm_db\":0.014747413429054054},"
    "{\"fclock_hz\":100000000,\"t_write_sec\":1.1070270270270271e-05,"
    "\"t_read_sec\":0.0016384,\"t_comm_sec\":0.0016494702702702702,"
    "\"t_comp_sec\":0.08388608,\"t_rc_sb_sec\":34.21422010810811,"
    "\"t_rc_db_sec\":33.554432,\"speedup_sb\":4.641345016727927,"
    "\"speedup_db\":4.7326087951660165,\"util_comp_sb\":0.9807159682137033,"
    "\"util_comm_sb\":0.01928403178629669,\"util_comp_db\":1,"
    "\"util_comm_db\":0.019663217905405404},{\"fclock_hz\":150000000,"
    "\"t_write_sec\":1.1070270270270271e-05,\"t_read_sec\":0.0016384,"
    "\"t_comm_sec\":0.0016494702702702702,\"t_comp_sec\":0.055924053333333335,"
    "\"t_rc_sb_sec\":23.02940944144144,\"t_rc_db_sec\":22.369621333333335,"
    "\"speedup_sb\":6.895530708409712,\"speedup_db\":7.098913192749023,"
    "\"util_comp_sb\":0.9713501942033815,\"util_comm_sb\":0.028649805796618424,"
    "\"util_comp_db\":1,\"util_comm_db\":0.029494826858108107}]}]}";

const char* const kBatchCsv =
    "file,status,name,elements_in,elements_out,bytes_per_element,"
    "ideal_bw_bytes_per_sec,alpha_write,alpha_read,ops_per_element,"
    "throughput_ops_per_cycle,tsoft_sec,n_iterations,fclock_hz,"
    "t_write_sec,t_read_sec,t_comm_sec,t_comp_sec,t_rc_sb_sec,"
    "t_rc_db_sec,speedup_sb,speedup_db,util_comm_sb,util_comp_sb,"
    "util_comm_db,util_comp_db,error\n"
    "<fixtures>/broken.rat,error,,,,,,,,,,,,,,,,,,,,,,,,,"
    "<fixtures>/broken.rat:3:18: E_BAD_LIST: RatInputs::parse: fclock_hz: not a"
    " number: 'oops'\n"
    "<fixtures>/md.rat,ok,Molecular dynamics,16384,16384,"
    "36,500000000,0.9,0.9,164000,50,5.78,1,75000000,0.00131072,"
    "0.00131072,0.00262144,0.7165269333333333,0.7191483733333333,"
    "0.7165269333333333,8.037284396833233,8.066689095846037,"
    "0.003645200486026732,0.9963547995139733,0.003658536585365854,"
    "1,\n"
    "<fixtures>/md.rat,ok,Molecular dynamics,16384,16384,"
    "36,500000000,0.9,0.9,164000,50,5.78,1,100000000,0.00131072,"
    "0.00131072,0.00262144,0.5373952,0.5400166399999999,0.5373952,"
    "10.703373881219662,10.75558546112805,0.004854368932038835,"
    "0.9951456310679612,0.004878048780487806,1,\n"
    "<fixtures>/md.rat,ok,Molecular dynamics,16384,16384,"
    "36,500000000,0.9,0.9,164000,50,5.78,1,150000000,0.00131072,"
    "0.00131072,0.00262144,0.35826346666666664,0.3608849066666666,"
    "0.35826346666666664,16.016186582551455,16.133378191692074,"
    "0.0072639225181598075,0.9927360774818402,0.007317073170731708,"
    "1,\n"
    "<fixtures>/pdf1d.rat,ok,1-D PDF estimation,512,1,4,1000000000,"
    "0.37,0.16,768,20,0.578,400,75000000,5.5351351351351355e-06,"
    "2.5e-08,5.560135135135135e-06,0.000262144,0.10708165405405405,"
    "0.10485760000000001,5.397750017087238,5.512237548828124,"
    "0.02076970209043808,0.979230297909562,0.02121023229650549,"
    "1,\n"
    "<fixtures>/pdf1d.rat,ok,1-D PDF estimation,512,1,4,1000000000,"
    "0.37,0.16,768,20,0.578,400,100000000,5.5351351351351355e-06,"
    "2.5e-08,5.560135135135135e-06,0.000196608,0.08086725405405405,"
    "0.0786432,7.147516096115342,7.349650065104166,0.027502529671249016,"
    "0.9724974703287509,0.028280309728673986,1,\n"
    "<fixtures>/pdf1d.rat,ok,1-D PDF estimation,512,1,4,1000000000,"
    "0.37,0.16,768,20,0.578,400,150000000,5.5351351351351355e-06,"
    "2.5e-08,5.560135135135135e-06,0.000131072,0.05465285405405406,"
    "0.052428800000000005,10.575842927220831,11.024475097656248,"
    "0.04069419781544011,0.9593058021845599,0.04242046459301098,"
    "1,\n"
    "<fixtures>/pdf2d.rat,ok,2-D PDF estimation,1024,65536,"
    "4,1000000000,0.37,0.16,393216,48,158.8,400,75000000,"
    "1.1070270270270271e-05,0.0016384,0.0016494702702702702,"
    "0.11184810666666667,45.39903077477477,44.73924266666667,"
    "3.4978720314054508,3.5494565963745117,0.01453308797232536,"
    "0.9854669120276747,0.014747413429054054,1,\n"
    "<fixtures>/pdf2d.rat,ok,2-D PDF estimation,1024,65536,"
    "4,1000000000,0.37,0.16,393216,48,158.8,400,100000000,"
    "1.1070270270270271e-05,0.0016384,0.0016494702702702702,"
    "0.08388608,34.21422010810811,33.554432,4.641345016727927,"
    "4.7326087951660165,0.01928403178629669,0.9807159682137033,"
    "0.019663217905405404,1,\n"
    "<fixtures>/pdf2d.rat,ok,2-D PDF estimation,1024,65536,"
    "4,1000000000,0.37,0.16,393216,48,158.8,400,150000000,"
    "1.1070270270270271e-05,0.0016384,0.0016494702702702702,"
    "0.055924053333333335,23.02940944144144,22.369621333333335,"
    "6.895530708409712,7.098913192749023,0.028649805796618424,"
    "0.9713501942033815,0.029494826858108107,1,\n";

const char* const kError =
    "{\"schema\":\"rat.svc.v1\",\"id\":\"q\\\"\\\\\\t\\u0001\","
    "\"status\":\"error\",\"error\":{\"code\":\"E_OVERLOADED\","
    "\"message\":\"queue full\\n\"}}";

const char* const kInternal =
    "{\"schema\":\"rat.svc.v1\",\"id\":null,\"status\":\"error\","
    "\"error\":{\"code\":\"E_INTERNAL\",\"message\":\"boom\"}}";

const char* const kPong =
    "{\"schema\":\"rat.svc.v1\",\"id\":\"p\",\"status\":\"ok\","
    "\"op\":\"ping\"}";

const char* const kShutdown =
    "{\"schema\":\"rat.svc.v1\",\"id\":\"s\",\"status\":\"ok\","
    "\"op\":\"shutdown\",\"draining\":true}";

const char* const kForwardEvaluate =
    "{\"id\":\"t1\",\"op\":\"evaluate\",\"worksheet\":\"name = x\\nfclock_hz = "
    "1e8\\n\",\"deadline_ms\":12.5,\"no_cache\":true}";

const char* const kForwardFile =
    "{\"id\":\"t2\",\"op\":\"evaluate\",\"file\":\"sheets/a \\\"b\\\".rat\"}";

const char* const kForwardPing =
    "{\"id\":\"t3\",\"op\":\"ping\"}";

const char* const kStats =
    "{\"schema\":\"rat.svc.v1\",\"id\":\"st\",\"status\":\"ok\","
    "\"op\":\"stats\",\"stats\":{\"requests\":3,\"responses_ok\":2,"
    "\"responses_error\":0,\"rejected_overloaded\":0,\"rejected_draining\":0,"
    "\"deadline_expired\":0,\"in_flight\":0,\"cache\":{\"hits\":1,"
    "\"misses\":1,\"evictions\":0,\"size\":1,\"bytes\":584,"
    "\"capacity\":1024,\"hit_ratio\":0.5}}}";

TEST(SvcWireGolden, CanonicalText) {
  EXPECT_EQ(canonical_text(fixture("pdf1d")), kCanonicalPdf1d);
  EXPECT_EQ(canonical_text(fixture("pdf2d")), kCanonicalPdf2d);
  EXPECT_EQ(canonical_text(fixture("md")), kCanonicalMd);
}

TEST(SvcWireGolden, EvaluateResponses) {
  EXPECT_EQ(evaluate("golden-pdf1d", fixture("pdf1d")), kEvaluatePdf1d);
  EXPECT_EQ(evaluate("golden-pdf2d", fixture("pdf2d")), kEvaluatePdf2d);
  EXPECT_EQ(evaluate("golden-md", fixture("md")), kEvaluateMd);
  EXPECT_EQ(evaluate("", fixture("pdf1d")), kEvaluateNullId);
}

TEST(SvcWireGolden, DiagnosticResponseForBrokenWorksheet) {
  try {
    fixture("broken");
    FAIL() << "broken.rat loaded";
  } catch (const core::ParseError& e) {
    EXPECT_EQ(portable(diagnostic_response("b1", e.diagnostic())),
              kDiagnosticBroken);
  }
}

TEST(SvcWireGolden, BatchJsonAndCsv) {
  const io::BatchResult result = io::run_batch_dir(kFixtureDir, 1);
  EXPECT_EQ(portable(io::batch_json(result)), kBatchJson);
  EXPECT_EQ(portable(io::batch_csv(result)), kBatchCsv);
}

TEST(SvcWireGolden, ErrorPingAndShutdownResponses) {
  EXPECT_EQ(error_response("q\"\\\t\001", SvcErrorCode::kOverloaded,
                           "queue full\n"),
            kError);
  EXPECT_EQ(internal_error_response("", "boom"), kInternal);
  EXPECT_EQ(pong_response("p"), kPong);
  EXPECT_EQ(shutdown_response("s"), kShutdown);
}

TEST(SvcWireGolden, RouterForwardLines) {
  Request evaluate_req;
  evaluate_req.worksheet = "name = x\nfclock_hz = 1e8\n";
  evaluate_req.has_worksheet = true;
  evaluate_req.deadline_ms = 12.5;
  evaluate_req.no_cache = true;
  EXPECT_EQ(encode_forward("t1", evaluate_req), kForwardEvaluate);

  Request file_req;
  file_req.file = "sheets/a \"b\".rat";
  file_req.has_file = true;
  EXPECT_EQ(encode_forward("t2", file_req), kForwardFile);

  Request ping_req;
  ping_req.op = Request::Op::kPing;
  EXPECT_EQ(encode_forward("t3", ping_req), kForwardPing);
}

TEST(SvcWireGolden, StatsResponse) {
  Service service;
  auto round_trip = [&service](const std::string& line) {
    std::promise<std::string> promise;
    auto response = promise.get_future();
    service.submit(line, [&promise](std::string l) {
      promise.set_value(std::move(l));
    });
    return response.get();
  };
  const std::string evaluate_line =
      "{\"id\":\"a\",\"op\":\"evaluate\",\"file\":" +
      io::json_str(fixture_path("pdf1d")) + "}";
  round_trip(evaluate_line);  // miss
  round_trip(evaluate_line);  // hit
  // The response is delivered just before the request leaves in_flight.
  while (service.stats().in_flight != 0) std::this_thread::yield();
  EXPECT_EQ(round_trip("{\"id\":\"st\",\"op\":\"stats\"}"), kStats);
}

}  // namespace
}  // namespace rat::svc
