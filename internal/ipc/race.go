//go:build race

package ipc

import (
	"runtime"
	"unsafe"
)

// ioSync stands in for the syscall package's: a raw read(2) or write(2)
// (rawIO) draws no happens-before edge for the race detector, so each write
// (send, either branch) releases ioSync and each read (readFD, fill)
// acquires it, with the byte ranges syscall.Write and syscall.Read report.
var ioSync byte

func raceWriting(p []byte) {
	runtime.RaceReleaseMerge(unsafe.Pointer(&ioSync))
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(p)), len(p))
}

func raceRead(p []byte) {
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(p)), len(p))
	runtime.RaceAcquire(unsafe.Pointer(&ioSync))
}
