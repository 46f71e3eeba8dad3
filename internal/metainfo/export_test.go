package metainfo

// KindOfForTest lets the external differential test (package
// metainfo_test) rebuild the full-sweep reference inference.
var KindOfForTest = kindOf
