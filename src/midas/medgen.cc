#include "midas/medgen.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "midas/medical.h"

namespace midas {

namespace {

constexpr const char* kGivenNames[] = {
    "Alex", "Camille", "Dana", "Elio", "Farah", "Gwen", "Hugo", "Ines",
    "Jules", "Kim", "Lena", "Marek", "Nour", "Olga", "Pavel", "Quinn",
    "Rosa", "Sven", "Tara", "Yuki"};
constexpr const char* kFamilyNames[] = {
    "Almeida", "Bauer", "Costa", "Dubois", "Eriksen", "Fontaine", "Garcia",
    "Haddad", "Ivanov", "Jansen", "Kovacs", "Lindqvist", "Moreau", "Nakata",
    "Okafor", "Petit", "Rossi", "Schmidt", "Tanaka", "Veras"};
// Population blood-type frequencies (approximate ABO/Rh distribution).
constexpr const char* kBloodTypes[] = {"O+", "O+", "O+", "A+", "A+", "B+",
                                       "O-", "A-", "AB+", "B-"};
constexpr const char* kSexes[] = {"F", "F", "M", "M", "U"};
constexpr const char* kModalities[] = {"CT", "MR", "US", "XR", "CR", "PT",
                                       "NM", "MG"};
constexpr const char* kDepartments[] = {
    "cardiology", "oncology", "radiology", "neurology", "orthopedics",
    "pediatrics", "emergency", "internal-medicine"};
constexpr const char* kTestCodes[] = {"HGB", "WBC", "PLT", "NA",  "K",
                                      "CREA", "GLU", "CRP", "ALT", "TSH"};

std::string MakeDate(Rng* rng, int start_year, int span_years) {
  const int year = start_year + static_cast<int>(rng->Index(span_years));
  const int month = 1 + static_cast<int>(rng->Index(12));
  const int day = 1 + static_cast<int>(rng->Index(28));
  // Sized for three full-width ints so the format can never truncate.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
  return buf;
}

template <size_t N>
std::string Pick(Rng* rng, const char* const (&values)[N]) {
  return values[rng->Index(N)];
}

}  // namespace

MedGen::MedGen(double scale, uint64_t seed) : scale_(scale), seed_(seed) {
  auto catalog = MakeMedicalCatalog(scale > 0.0 ? scale : 1.0);
  if (catalog.ok()) catalog_ = std::move(catalog).ValueOrDie();
}

StatusOr<const TableDef*> MedGen::FindTable(const std::string& table) const {
  if (scale_ <= 0.0) {
    return Status::InvalidArgument("scale must be positive");
  }
  return catalog_.Find(table);
}

StatusOr<uint64_t> MedGen::RowCount(const std::string& table) const {
  MIDAS_ASSIGN_OR_RETURN(const TableDef* def, FindTable(table));
  return def->row_count;
}

StatusOr<MedRow> MedGen::GenerateRow(const std::string& table,
                                     uint64_t index) const {
  MIDAS_ASSIGN_OR_RETURN(const TableDef* def, FindTable(table));
  if (index >= def->row_count) {
    return Status::OutOfRange("row index beyond table cardinality");
  }
  const uint64_t patients = catalog_.Find("Patient").ValueOrDie()->row_count;
  Rng rng(seed_ ^
          (std::hash<std::string>{}(table) + index * 0x9E3779B97F4A7C15ull));
  MedRow row;
  if (table == "Patient") {
    row.emplace_back(static_cast<int64_t>(index + 1));  // UID
    row.emplace_back(Pick(&rng, kGivenNames) + std::string(" ") +
                     Pick(&rng, kFamilyNames));
    row.emplace_back(Pick(&rng, kSexes));
    row.emplace_back(MakeDate(&rng, 1925, 100));
    row.emplace_back(Pick(&rng, kBloodTypes));
    row.emplace_back(static_cast<int64_t>(1 + rng.Index(25)));
  } else if (table == "GeneralInfo") {
    row.emplace_back(static_cast<int64_t>(1 + rng.Index(patients)));  // UID
    row.emplace_back("admission-" + std::to_string(index + 1));
    row.emplace_back(MakeDate(&rng, 2015, 10));
    row.emplace_back(Pick(&rng, kDepartments));
    // ICD-10-like synthetic code: letter + 2 digits + optional decimal.
    std::string code(1, static_cast<char>('A' + rng.Index(26)));
    code += std::to_string(10 + rng.Index(90));
    if (rng.Bernoulli(0.5)) {
      code += '.';
      code += std::to_string(rng.Index(10));
    }
    row.emplace_back(std::move(code));
  } else if (table == "ImagingStudy") {
    row.emplace_back(static_cast<int64_t>(index + 1));  // StudyUID
    row.emplace_back(static_cast<int64_t>(1 + rng.Index(patients)));
    row.emplace_back(Pick(&rng, kModalities));
    row.emplace_back(MakeDate(&rng, 2015, 10));
    row.emplace_back(static_cast<int64_t>(1 + rng.Index(12)));
    row.emplace_back(std::round(rng.Uniform(0.5, 2048.0) * 10.0) / 10.0);
  } else if (table == "LabResult") {
    row.emplace_back(static_cast<int64_t>(index + 1));  // ResultUID
    row.emplace_back(static_cast<int64_t>(1 + rng.Index(patients)));
    row.emplace_back(Pick(&rng, kTestCodes));
    row.emplace_back(std::round(rng.Uniform(0.1, 500.0) * 100.0) / 100.0);
    row.emplace_back(MakeDate(&rng, 2015, 10));
  } else {
    return Status::NotFound("unknown medical table: " + table);
  }
  return row;
}

Status MedGen::Generate(
    const std::string& table,
    const std::function<bool(uint64_t, const MedRow&)>& sink) const {
  MIDAS_ASSIGN_OR_RETURN(uint64_t rows, RowCount(table));
  for (uint64_t i = 0; i < rows; ++i) {
    MIDAS_ASSIGN_OR_RETURN(MedRow row, GenerateRow(table, i));
    if (!sink(i, row)) break;
  }
  return Status::OK();
}

std::string MedGen::FormatRow(const MedRow& row) {
  std::ostringstream os;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) os << ',';
    if (const auto* v = std::get_if<int64_t>(&row[i])) {
      os << *v;
    } else if (const auto* d = std::get_if<double>(&row[i])) {
      os << *d;
    } else {
      os << std::get<std::string>(row[i]);
    }
  }
  return os.str();
}

Status MedGen::WriteCsv(const std::string& table,
                        const std::string& path) const {
  MIDAS_ASSIGN_OR_RETURN(const TableDef* def, FindTable(table));
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path);
  for (size_t i = 0; i < def->columns.size(); ++i) {
    if (i > 0) out << ',';
    out << def->columns[i].name;
  }
  out << '\n';
  MIDAS_RETURN_IF_ERROR(Generate(table, [&](uint64_t, const MedRow& row) {
    out << FormatRow(row) << '\n';
    return static_cast<bool>(out);
  }));
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

}  // namespace midas
