package doctagger_test

import (
	"context"
	"fmt"
	"log"

	doctagger "repro"
)

// ExampleServer builds a two-shard serving pool over identically trained
// swarms and tags documents from concurrent-safe calls. In a real service
// many goroutines call Tag at once and the dispatcher batches whatever
// arrives while every shard is busy; a single call goes straight to an
// idle shard.
func ExampleServer() {
	build := func(shard int) (*doctagger.Tagger, error) {
		tg, err := doctagger.New(doctagger.Config{Peers: 4, Seed: 7})
		if err != nil {
			return nil, err
		}
		bootstrap := []struct {
			peer int
			text string
			tag  string
		}{
			{0, "guitar melody chord song album track", "music"},
			{1, "piano concert symphony orchestra melody", "music"},
			{2, "flight hotel passport beach island", "travel"},
			{3, "train station luggage itinerary map", "travel"},
			{0, "vinyl album drum bass rhythm tune", "music"},
			{1, "museum city tour visa border", "travel"},
		}
		for _, d := range bootstrap {
			if err := tg.AddDocument(d.peer, d.text, d.tag); err != nil {
				return nil, err
			}
		}
		return tg, tg.Train()
	}

	srv, err := doctagger.NewReplicatedServer(2, doctagger.ServerConfig{}, build)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	tags, err := srv.Tag(context.Background(), "a new album with a guitar melody")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tags)
	// Output: [music]
}
