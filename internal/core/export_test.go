package core

// AutoPartition is a PartitionBytes that lets the node pick the fragment
// size from its memory model (§IV-C).
const AutoPartition int64 = -1
