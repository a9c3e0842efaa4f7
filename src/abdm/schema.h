#ifndef MLDS_ABDM_SCHEMA_H_
#define MLDS_ABDM_SCHEMA_H_

#include <string>
#include <vector>

#include "abdm/value.h"
#include "common/result.h"

namespace mlds::abdm {

/// Template for one attribute of a kernel file: its name, the kind of
/// values drawn from its domain, and whether the directory clusters
/// records by it (directory attributes are indexed by the kernel engine).
struct AttributeDescriptor {
  std::string name;
  ValueKind kind = ValueKind::kString;
  /// Maximum value length (string attributes); 0 means unbounded.
  int max_length = 0;
  /// Directory attributes participate in the kernel's keyword directory
  /// and get index-accelerated predicate evaluation.
  bool directory = false;
  /// Non-directory attributes may instead carry a *secondary* index:
  /// the store maintains the same ordered value buckets for them, so
  /// range/equality predicates get an index path without the attribute
  /// being part of the primary keyword directory. Ignored when
  /// `directory` is true (directory attributes are always indexed).
  bool indexed = false;
  /// UNIQUE / DUPLICATES ARE NOT ALLOWED: no two records agree on all of
  /// a file's unique attributes; a record with a NULL among them is not
  /// checked. Unique implies indexed (set both): the kernel's check reads
  /// the index buckets, and the codecs store it as indexed flag value 2.
  bool unique = false;

  friend bool operator==(const AttributeDescriptor&,
                         const AttributeDescriptor&) = default;
};

/// Descriptor for one kernel file — the unit the data-model
/// transformations emit: one file per record type (AB(network)) or per
/// entity type/subtype (AB(functional), Ch. III.C.1).
struct FileDescriptor {
  std::string name;
  std::vector<AttributeDescriptor> attributes;

  const AttributeDescriptor* FindAttribute(std::string_view attr) const {
    for (const auto& a : attributes) {
      if (a.name == attr) return &a;
    }
    return nullptr;
  }

  friend bool operator==(const FileDescriptor&,
                         const FileDescriptor&) = default;
};

/// A kernel database definition: the set of file descriptors produced by a
/// data-model transformation (the "KDM database definition" that KMS sends
/// through KCS to KDS, Ch. I.B.1).
struct DatabaseDescriptor {
  std::string name;
  std::vector<FileDescriptor> files;

  const FileDescriptor* FindFile(std::string_view file) const {
    for (const auto& f : files) {
      if (f.name == file) return &f;
    }
    return nullptr;
  }

  friend bool operator==(const DatabaseDescriptor&,
                         const DatabaseDescriptor&) = default;
};

}  // namespace mlds::abdm

#endif  // MLDS_ABDM_SCHEMA_H_
