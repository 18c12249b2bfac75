//go:build !amd64

package tensor

// The amd64 kernels that are called directly behind a flag exist off amd64
// only so that those calls compile; the flags are never set there, so the
// stubs are never called.

func reluAVX(x *float32, n int) { panic("tensor: reluAVX called off amd64") }

func packLanes8AVX2(ap *float32, rows *[8]*float32, kb int) {
	panic("tensor: packLanes8AVX2 called off amd64")
}
