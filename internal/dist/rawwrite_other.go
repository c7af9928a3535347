//go:build !unix

package dist

// rawWrite writes nothing where there is no write(2): every frame goes to
// the writer goroutine.
func rawWrite(fd uintptr, p []byte) int { return 0 }
