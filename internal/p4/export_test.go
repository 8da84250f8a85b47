package p4

// ProcessFrameTree runs one frame through sw on the tree-walking reference
// interpreter, for the differential tests of package p4_test.
var ProcessFrameTree = (*Switch).processFrameTree
