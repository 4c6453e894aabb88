package main

import (
	"os"
	"syscall"
	"unsafe"
)

// ioctl requests and the inode flag of chattr +T (linux/fs.h).
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopDirFl    = 0x00020000
)

// setTopDir sets the "top of directory hierarchy" flag on dir, best
// effort: file systems without the flag refuse the ioctl and nothing
// changes.
func setTopDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	if flags&fsTopDirFl != 0 {
		return
	}
	flags |= fsTopDirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
