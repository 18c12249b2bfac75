package proto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// writeBytewise writes b to w one byte per Write, so each byte is a separate
// hand-off on a net.Pipe.
func writeBytewise(w io.Writer, b []byte) error {
	for i := range b {
		if _, err := w.Write(b[i : i+1]); err != nil {
			return err
		}
	}
	return nil
}

// TestServeReadsWholeFrames: Serve decodes through a buffered reader, so a
// command whose bytes arrive one Write at a time and two commands that
// arrive in a single Write both complete exactly as Execute completes them,
// in order. A stream cut mid-frame still ends Serve with
// io.ErrUnexpectedEOF (TestServeTruncatedStream covers every cut).
func TestServeReadsWholeFrames(t *testing.T) {
	h := &Handler{}
	cmds := []Command{
		{Op: OpQuery, CID: 1, DB: 2, Model: 3, Args: [4]uint64{4, 5}, Payload: bytes.Repeat([]byte{7}, 300)},
		{Op: OpGetResults, CID: 2, Args: [4]uint64{9}},
		{Op: 0x88, CID: 3, Payload: []byte{1, 2, 3}},
	}
	frames := make([][]byte, len(cmds))
	wants := make([]Completion, len(cmds))
	for i, c := range cmds {
		frames[i], _ = MarshalCommand(c)
		wants[i] = h.Execute(c)
	}
	host, dev := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- Serve(dev, h)
		dev.Close()
	}()
	writeErr := make(chan error, 1)
	go func() {
		err := writeBytewise(host, frames[0])
		if err == nil {
			_, err = host.Write(append(append([]byte(nil), frames[1]...), frames[2]...))
		}
		writeErr <- err
	}()
	br := bufio.NewReader(host)
	for i, want := range wants {
		got, err := UnmarshalCompletion(br)
		if err != nil {
			t.Fatalf("completion %d: %v", i, err)
		}
		if got.CID != want.CID || got.Status != want.Status || got.Detail != want.Detail || got.Value != want.Value {
			t.Errorf("completion %d = %+v, Execute gives %+v", i, got, want)
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	host.Close()
	if err := <-done; err != nil {
		t.Errorf("Serve after a clean close = %v, want nil", err)
	}
}

// TestStreamReadsWholeFrames: Stream.Submit decodes through a buffered
// reader that outlives one Submit. A completion (header, detail and payload)
// written one byte per Write decodes whole; two completions written in one
// Write answer two Submits in order, the second from bytes the first read
// already buffered; and a completion cut mid-frame is io.ErrUnexpectedEOF.
func TestStreamReadsWholeFrames(t *testing.T) {
	cpls := []Completion{
		{CID: 1, Status: StatusSuccess, Value: 42, Detail: "first", Payload: bytes.Repeat([]byte{5}, 700)},
		{CID: 2, Status: StatusInvalidField, Detail: "second"},
		{CID: 3, Status: StatusSuccess, Value: 7, Payload: []byte{9, 8, 7}},
	}
	frames := make([][]byte, len(cpls))
	for i, c := range cpls {
		frames[i], _ = MarshalCompletion(c)
	}
	host, dev := net.Pipe()
	defer host.Close()
	// The device reads each command before it answers, so every Write below
	// happens while Submit is waiting for its completion.
	device := make(chan error, 1)
	go func() {
		defer dev.Close()
		br := bufio.NewReader(dev)
		for _, reply := range []func() error{
			func() error { return writeBytewise(dev, frames[0]) },
			func() error {
				_, err := dev.Write(append(append([]byte(nil), frames[1]...), frames[2]...))
				return err
			},
			func() error { return nil }, // the third completion is already on its way
			func() error {
				_, err := dev.Write(frames[0][:len(frames[0])-1])
				return err
			},
		} {
			if _, err := UnmarshalCommand(br); err != nil {
				device <- err
				return
			}
			if err := reply(); err != nil {
				device <- err
				return
			}
		}
		device <- nil
	}()
	s := NewStream(host)
	for i, want := range cpls {
		got, err := s.Submit(Command{Op: OpGetResults, CID: want.CID})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if got.CID != want.CID || got.Status != want.Status || got.Value != want.Value ||
			got.Detail != want.Detail || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("Submit %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := s.Submit(Command{Op: OpGetResults, CID: 4}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Submit against a cut completion = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := <-device; err != nil {
		t.Fatal(err)
	}
}
