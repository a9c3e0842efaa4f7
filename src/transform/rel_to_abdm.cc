#include "transform/rel_to_abdm.h"

#include <algorithm>

#include "abdm/record.h"
#include "transform/abdm_mapping.h"

namespace mlds::transform {

namespace {

abdm::ValueKind MapColumnType(relational::ColumnType type) {
  switch (type) {
    case relational::ColumnType::kInteger:
      return abdm::ValueKind::kInteger;
    case relational::ColumnType::kFloat:
      return abdm::ValueKind::kFloat;
    case relational::ColumnType::kChar:
      return abdm::ValueKind::kString;
  }
  return abdm::ValueKind::kString;
}

}  // namespace

Result<abdm::DatabaseDescriptor> MapRelationalToAbdm(
    const relational::Schema& schema) {
  MLDS_RETURN_IF_ERROR(schema.Validate());
  abdm::DatabaseDescriptor db;
  db.name = schema.name();
  for (const auto& table : schema.tables()) {
    abdm::FileDescriptor file;
    file.name = table.name;
    file.attributes.push_back(abdm::AttributeDescriptor{
        std::string(abdm::kFileAttribute), abdm::ValueKind::kString, 0, true});
    file.attributes.push_back(abdm::AttributeDescriptor{
        KeyAttribute(table.name), abdm::ValueKind::kString, 0, true});
    // Data columns ride a secondary index rather than the keyword
    // directory: the FILE keyword and surrogate key keep clustering the
    // file, while column predicates get the secondary-index path. The
    // kernel enforces UNIQUE over the flagged columns.
    for (const auto& column : table.columns) {
      const bool unique =
          std::find(table.unique_columns.begin(), table.unique_columns.end(),
                    column.name) != table.unique_columns.end();
      file.attributes.push_back(abdm::AttributeDescriptor{
          column.name, MapColumnType(column.type), column.length,
          /*directory=*/false, /*indexed=*/true, unique});
    }
    db.files.push_back(std::move(file));
  }
  return db;
}

}  // namespace mlds::transform
