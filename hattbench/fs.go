package main

import (
	"strconv"
	"syscall"
)

// fsType names the filesystem holding dir; fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}
