package ftree

import "slices"

// sizeClasses are the Go allocator's small-object size classes, in bytes:
// a heap object of n ≤ 32 768 bytes takes the first class ≥ n.  They are
// the runtime's (runtime/sizeclasses.go); TestArenaFootprint checks them
// against runtime.MemStats.BySize and the runtime/metrics allocation
// histogram of the toolchain that builds the tests.
var sizeClasses = [...]uint32{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
	240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768,
	896, 1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200,
	3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240,
	10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576,
	27264, 28672, 32768,
}

// heapPage is the allocator's page: an object above the largest class takes
// whole pages.
const heapPage = 8 << 10

// classBytes is what the Go heap hands out for an object of n bytes: its
// size class, or whole pages above the largest.
func classBytes(n uintptr) uintptr {
	if n > uintptr(sizeClasses[len(sizeClasses)-1]) {
		return (n + heapPage - 1) &^ (heapPage - 1)
	}
	i, _ := slices.BinarySearch(sizeClasses[:], uint32(n))
	return uintptr(sizeClasses[i])
}
