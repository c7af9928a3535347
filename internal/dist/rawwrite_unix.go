//go:build unix

package dist

import "syscall"

// rawWrite makes one write(2) of p on a non-blocking socket and returns the
// bytes it took: 0 when the socket buffer is full (EAGAIN), on EINTR, or on
// any other error, which the blocking Write that follows reports.
func rawWrite(fd uintptr, p []byte) int {
	n, err := syscall.Write(int(fd), p)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
